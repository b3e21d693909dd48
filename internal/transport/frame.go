// Binary wire framing for the transport layer.
//
// Every message on either fabric — a TCP connection or the in-process
// Fabric's Send — is one self-delimiting frame:
//
//	length  u32 big-endian — bytes after this field (body + crc)
//	body:   from  (uvarint-length string)
//	        to    (uvarint-length string)
//	        tagged payload: 1 tag byte + codec body
//	crc     u32 big-endian CRC-32C over body
//
// The tag and body belong to the registered FrameCodec — internal/wire
// registers one hand-rolled codec per Weaver message. A payload type the
// codec does not own is an encode error: nothing is emitted, Send fails,
// and the connection stays usable.
//
// Encoding appends into pooled buffers (sync.Pool) so a steady-state send
// allocates nothing; each connection's read loop reuses one frame buffer.
// Decoding is defensive: the length field is bounded by MaxFrame, the CRC
// rejects corruption and torn writes, and payload decoding inherits
// internal/binenc's sticky-error, allocation-bounded discipline.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"weaver/internal/binenc"
	"weaver/internal/obs"
)

// MaxFrame bounds one wire frame (length field excluded). Frames beyond it
// are rejected before any allocation, so a corrupt or hostile length field
// cannot trigger a giant up-front allocation.
const MaxFrame = 64 << 20

// ErrFrameCorrupt reports a frame that failed structural validation: bad
// length, CRC mismatch, or an undecodable payload. Connections drop on it
// (the stream cannot be resynchronized).
var ErrFrameCorrupt = errors.New("transport: corrupt wire frame")

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// FrameCodec encodes and decodes tagged payload bodies. Append writes
// tag + body for payloads it owns and reports ok=false (buf unchanged) for
// any other type. Decode is handed the full tag + body slice Append
// produced. Implementations must deep-copy decoded data out of the input
// buffer (readers reuse it).
type FrameCodec interface {
	Append(buf []byte, payload any) ([]byte, bool)
	Decode(data []byte) (any, error)
}

var frameCodecMu sync.RWMutex
var frameCodec FrameCodec

// RegisterFrameCodec installs the payload codec used by every node in this
// process. internal/wire registers Weaver's message codec from an init, so
// importing that package is enough; with no codec nothing can be framed.
// Later registrations replace earlier ones.
func RegisterFrameCodec(c FrameCodec) {
	frameCodecMu.Lock()
	frameCodec = c
	frameCodecMu.Unlock()
}

func loadFrameCodec() FrameCodec {
	frameCodecMu.RLock()
	c := frameCodec
	frameCodecMu.RUnlock()
	return c
}

// frameBufPool recycles encode buffers across sends. Buffers retain their
// grown capacity, so steady-state traffic encodes with zero allocations.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getFrameBuf() *[]byte  { return frameBufPool.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { *b = (*b)[:0]; frameBufPool.Put(b) }

// AppendPayload appends the tagged payload encoding (tag byte + body) for
// payload. A type the registered codec does not own is an error; buf is
// then returned unchanged.
func AppendPayload(buf []byte, payload any) ([]byte, error) {
	if c := loadFrameCodec(); c != nil {
		if out, ok := c.Append(buf, payload); ok {
			return out, nil
		}
	}
	return buf, fmt.Errorf("transport: no frame codec for %T", payload)
}

// DecodePayload decodes a tagged payload produced by AppendPayload.
func DecodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrFrameCorrupt)
	}
	c := loadFrameCodec()
	if c == nil {
		return nil, fmt.Errorf("%w: tag %d with no registered frame codec", ErrFrameCorrupt, data[0])
	}
	v, err := c.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return v, nil
}

// AppendFrame appends one complete wire frame for (from, to, payload). On
// error buf is returned unchanged and nothing was emitted — encode errors
// never leave a partial frame behind.
func AppendFrame(buf []byte, from, to Addr, payload any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	buf = binenc.AppendStr(buf, string(from))
	buf = binenc.AppendStr(buf, string(to))
	buf, err := AppendPayload(buf, payload)
	if err != nil {
		return buf[:start], err
	}
	body := buf[start+4:]
	if len(body)+4 > MaxFrame {
		return buf[:start], fmt.Errorf("transport: frame for %T exceeds MaxFrame (%d bytes)", payload, len(body)+4)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(body, frameCRC))
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// DecodeFrame parses one frame body (everything after the length field,
// CRC included) back into its envelope.
func DecodeFrame(data []byte) (from, to Addr, payload any, err error) {
	if len(data) < 4 {
		return "", "", nil, fmt.Errorf("%w: short frame", ErrFrameCorrupt)
	}
	body, crcb := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, frameCRC) != binary.BigEndian.Uint32(crcb) {
		return "", "", nil, fmt.Errorf("%w: crc mismatch", ErrFrameCorrupt)
	}
	d := binenc.Decoder{Buf: body}
	from = Addr(d.Str())
	to = Addr(d.Str())
	if d.Err != nil {
		return "", "", nil, fmt.Errorf("%w: envelope header: %v", ErrFrameCorrupt, d.Err)
	}
	payload, err = DecodePayload(d.Buf)
	return from, to, payload, err
}

// frameReader reads frames off a byte stream, reusing one buffer across
// frames (strings and byte slices are copied out during decoding, so the
// buffer is free to be overwritten by the next frame).
type frameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
	// decoded, when set, counts complete frame bytes read off the wire
	// (length prefix included).
	decoded *obs.Counter
}

// next reads and decodes one frame. io errors pass through (io.EOF on a
// clean close); framing errors wrap ErrFrameCorrupt.
func (fr *frameReader) next() (from, to Addr, payload any, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return "", "", nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n < 4 || n > MaxFrame {
		return "", "", nil, fmt.Errorf("%w: frame length %d", ErrFrameCorrupt, n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err = io.ReadFull(fr.r, fr.buf); err != nil {
		return "", "", nil, err
	}
	fr.decoded.Add(uint64(n) + 4)
	return DecodeFrame(fr.buf)
}
