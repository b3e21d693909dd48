package nodeprog

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode for every payload type: it
// must never panic, only return a value or an error, and a value that
// decodes must re-encode to a payload that decodes equal. The corpus is
// every sample payload, each with its last byte cut, and every tag byte
// alone: all 256, so the tags of dropped types and of types not yet
// written are seeded however many tags there are.
func FuzzDecode(f *testing.F) {
	for _, s := range codecSamples() {
		buf := Encode(s.in)
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{})
	for tag := 0; tag <= 0xFF; tag++ {
		f.Add([]byte{byte(tag)})
		f.Add([]byte{byte(tag), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'x'}) // oversized count / length
	}
	samples := codecSamples()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range samples {
			v, err := decodeAs(data, s.in)
			if err != nil {
				continue
			}
			again, err := decodeAs(Encode(v), s.in)
			if err != nil {
				t.Fatalf("re-decode of re-encoded %T failed: %v", v, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("decode∘encode not a fixed point for %T:\n%#v\nvs\n%#v", v, v, again)
			}
		}
	})
}
