package transport

// LoadFrameCodec and TestCodec let the external tests (package
// transport_test), which import internal/wire and with it the real codec,
// frame wire messages while this package's own tests keep the test codec.
func LoadFrameCodec() FrameCodec { return loadFrameCodec() }

var TestCodec FrameCodec = testCodec{}
