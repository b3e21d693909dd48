// Package binenc holds the length-prefixed binary encoding primitives
// behind every codec in the tree: wire frames (internal/wire), vertex
// records (internal/graph), WAL records (internal/kvstore), the snapshot
// manifest (internal/snapshot), the epoch log (internal/cluster) and
// node-program params, state and results (internal/nodeprog). It is the
// program's one encoding.
//
// Decoding is defensive — codecs face fuzzed and (in a distributed
// deployment) network-supplied bytes: the Decoder's first framing error
// sticks and zero values flow from then on, string reads are bounded by
// the remaining buffer, and Count bounds element-count allocation hints
// by the bytes that could possibly back them, so a corrupt length byte
// can never trigger a huge up-front allocation. Keeping these guards in
// ONE place means a hardening fix found by any codec's fuzzer reaches
// all of them.
package binenc

import (
	"encoding/binary"
	"errors"

	"weaver/internal/core"
)

// ErrTruncated is the sticky framing error: input ended (or a count
// exceeded the remaining bytes) mid-structure.
var ErrTruncated = errors.New("binenc: truncated input")

// AppendUvarint appends one unsigned varint (re-exported so codec files
// read uniformly against this package).
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends one signed varint.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendStr appends a uvarint length prefix and the string bytes.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends one byte, 1 for true.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendTS appends a refinable timestamp: epoch, owner, clock length,
// clock components.
func AppendTS(buf []byte, ts core.Timestamp) []byte {
	buf = binary.AppendUvarint(buf, ts.Epoch)
	buf = binary.AppendVarint(buf, int64(ts.Owner))
	buf = binary.AppendUvarint(buf, uint64(len(ts.Clock)))
	for _, c := range ts.Clock {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf
}

// AppendBytes appends a uvarint length prefix and the raw bytes.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendID appends a compact timestamp identity.
func AppendID(buf []byte, id core.ID) []byte {
	buf = binary.AppendUvarint(buf, id.Epoch)
	buf = binary.AppendVarint(buf, int64(id.Owner))
	return binary.AppendUvarint(buf, id.Counter)
}

// AppendStrMap appends a count prefix and the map's key/value strings.
func AppendStrMap(buf []byte, m map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for k, v := range m {
		buf = AppendStr(buf, k)
		buf = AppendStr(buf, v)
	}
	return buf
}

// AppendStrs appends a count prefix and each string of a list of strings
// (or string-kinded IDs and addresses).
func AppendStrs[T ~string](buf []byte, vs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = AppendStr(buf, string(v))
	}
	return buf
}

// Decoder is a cursor over an encoded buffer; the first framing error
// sticks and zero values flow from then on, so callers check Err once at
// the end.
type Decoder struct {
	Buf []byte
	Err error
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf)
	if n <= 0 {
		d.Err = ErrTruncated
		return 0
	}
	d.Buf = d.Buf[n:]
	return v
}

// Varint reads one signed varint.
func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Buf)
	if n <= 0 {
		d.Err = ErrTruncated
		return 0
	}
	d.Buf = d.Buf[n:]
	return v
}

// Count reads an element count and bounds it by the remaining bytes,
// given the minimum encoded size of one element — the allocation-hint
// guard against corrupt headers.
func (d *Decoder) Count(minElem int) uint64 {
	n := d.Uvarint()
	if d.Err != nil {
		return 0
	}
	if n > uint64(len(d.Buf))/uint64(minElem)+1 {
		d.Err = ErrTruncated
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.Err != nil {
		return ""
	}
	if uint64(len(d.Buf)) < n {
		d.Err = ErrTruncated
		return ""
	}
	s := string(d.Buf[:n])
	d.Buf = d.Buf[n:]
	return s
}

// RawStr reads a length-prefixed string as the bytes it occupies in Buf,
// without copying: the result aliases the buffer, so the caller must copy
// what it keeps.
func (d *Decoder) RawStr() []byte {
	n := d.Uvarint()
	if d.Err != nil {
		return nil
	}
	if uint64(len(d.Buf)) < n {
		d.Err = ErrTruncated
		return nil
	}
	b := d.Buf[:n:n]
	d.Buf = d.Buf[n:]
	return b
}

// Bytes reads a length-prefixed byte slice written by AppendBytes. The
// returned slice is a copy (decoders read from reused buffers); empty
// slices decode as nil.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n == 0 || d.Err != nil {
		return nil
	}
	if uint64(len(d.Buf)) < n {
		d.Err = ErrTruncated
		return nil
	}
	b := make([]byte, n)
	copy(b, d.Buf[:n])
	d.Buf = d.Buf[n:]
	return b
}

// ID reads a timestamp identity written by AppendID.
func (d *Decoder) ID() core.ID {
	var id core.ID
	id.Epoch = d.Uvarint()
	id.Owner = int32(d.Varint())
	id.Counter = d.Uvarint()
	return id
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool {
	if d.Err != nil {
		return false
	}
	if len(d.Buf) < 1 {
		d.Err = ErrTruncated
		return false
	}
	b := d.Buf[0]
	d.Buf = d.Buf[1:]
	return b != 0
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if len(d.Buf) < 1 {
		d.Err = ErrTruncated
		return 0
	}
	b := d.Buf[0]
	d.Buf = d.Buf[1:]
	return b
}

// TS reads a timestamp written by AppendTS.
func (d *Decoder) TS() core.Timestamp {
	var ts core.Timestamp
	ts.Epoch = d.Uvarint()
	ts.Owner = int(d.Varint())
	if n := d.Uvarint(); n > 0 && d.Err == nil {
		if n > uint64(len(d.Buf)) { // each clock entry is ≥1 byte
			d.Err = ErrTruncated
			return ts
		}
		ts.Clock = make([]uint64, n)
		for i := range ts.Clock {
			ts.Clock[i] = d.Uvarint()
		}
	}
	return ts
}

// StrMap reads a map written by AppendStrMap; empty maps decode as nil.
func (d *Decoder) StrMap() map[string]string {
	n := d.Uvarint()
	if n == 0 || d.Err != nil {
		return nil
	}
	if n > uint64(len(d.Buf)) { // each entry is ≥2 bytes
		d.Err = ErrTruncated
		return nil
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.Str()
		m[k] = d.Str()
	}
	return m
}

// Strs reads a list written by AppendStrs; empty lists decode as nil.
func Strs[T ~string](d *Decoder) []T {
	n := d.Count(1)
	if n == 0 || d.Err != nil {
		return nil
	}
	vs := make([]T, 0, n)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		vs = append(vs, T(d.Str()))
	}
	return vs
}
