package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataflow"
)

// wireBatch is []Record with a hand-rolled wire encoding. Letting gob encode
// records directly would write each Value as a full interface value — the
// concrete type's name plus a nested single-value encoding, per record —
// which dominates the data plane's CPU cost at scale. Instead the batch
// packs into one byte slice: varint header fields and a one-byte payload tag
// with fixed fast paths for every payload type the engine itself produces.
// Custom payload types still work through a per-value gob fallback (paying
// gob's interface cost, so hot pipelines should stick to engine types or
// flat numerics). The frame struct keeps riding gob for its own fields; gob
// sees this type as a single opaque byte slice via GobEncode/GobDecode.
//
// enc, when non-nil, is a reusable encode buffer: GobEncode builds the wire
// bytes in it (growing it as needed) instead of allocating per batch. gob
// copies the returned bytes into its own writer before Encode returns, so
// the caller may recycle the buffer as soon as Encode does — writeLoop pairs
// each Encode with a Get/Put on encBufPool.
type wireBatch struct {
	recs []dataflow.Record
	enc  *[]byte
}

var (
	_ gob.GobEncoder = wireBatch{}
	_ gob.GobDecoder = (*wireBatch)(nil)
)

// encBufPool recycles wire-encode buffers across batches and connections.
// Buffers retain their grown capacity, so the steady state encodes every
// batch with zero buffer allocations.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// Payload tags. The tag space is part of the wire protocol: both ends are
// the same binary in SPMD execution, but keep additions append-only anyway.
const (
	pNil byte = iota
	pFloat64
	pInt64
	pInt
	pUint64
	pString
	pBool
	pWindowResult
	pJoinedPair
	pGob
)

// GobEncode implements gob.GobEncoder.
func (b wireBatch) GobEncode() ([]byte, error) {
	var buf []byte
	if b.enc != nil {
		buf = (*b.enc)[:0]
	} else {
		buf = make([]byte, 0, 16*len(b.recs)+8)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.recs)))
	for i := range b.recs {
		r := &b.recs[i]
		buf = append(buf, byte(r.Kind))
		buf = binary.AppendVarint(buf, r.Ts)
		buf = binary.AppendUvarint(buf, r.Key)
		switch v := r.Value.(type) {
		case nil:
			buf = append(buf, pNil)
		case float64:
			buf = append(buf, pFloat64)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		case int64:
			buf = append(buf, pInt64)
			buf = binary.AppendVarint(buf, v)
		case int:
			buf = append(buf, pInt)
			buf = binary.AppendVarint(buf, int64(v))
		case uint64:
			buf = append(buf, pUint64)
			buf = binary.AppendUvarint(buf, v)
		case string:
			buf = append(buf, pString)
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		case bool:
			buf = append(buf, pBool)
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case dataflow.WindowResult:
			buf = append(buf, pWindowResult)
			buf = binary.AppendVarint(buf, int64(v.QueryID))
			buf = binary.AppendVarint(buf, v.Start)
			buf = binary.AppendVarint(buf, v.End)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Value))
			buf = binary.AppendVarint(buf, v.Count)
		case dataflow.JoinedPair:
			buf = append(buf, pJoinedPair)
			buf = binary.AppendVarint(buf, v.WindowStart)
			buf = binary.AppendVarint(buf, v.WindowEnd)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Left))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Right))
		default:
			var gb bytes.Buffer
			if err := gob.NewEncoder(&gb).Encode(&r.Value); err != nil {
				return nil, fmt.Errorf("wire batch: encode %T payload: %w", r.Value, err)
			}
			buf = append(buf, pGob)
			buf = binary.AppendUvarint(buf, uint64(gb.Len()))
			buf = append(buf, gb.Bytes()...)
		}
	}
	if b.enc != nil {
		*b.enc = buf // keep any growth for the next batch
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder.
func (b *wireBatch) GobDecode(data []byte) error {
	n, off, err := readUvarint(data, 0)
	if err != nil {
		return err
	}
	// Every record takes at least 4 bytes (kind, ts, key, payload tag).
	// Bounding the count by the bytes left keeps a corrupt or hostile
	// header from sizing an allocation the process cannot survive.
	if n > uint64(len(data)-off)/4 {
		return fmt.Errorf("wire batch: %d records cannot fit in %d bytes", n, len(data)-off)
	}
	out := make([]dataflow.Record, 0, n)
	for i := uint64(0); i < n; i++ {
		var r dataflow.Record
		if off >= len(data) {
			return fmt.Errorf("wire batch: truncated at record %d", i)
		}
		r.Kind = dataflow.Kind(data[off])
		off++
		var ts int64
		if ts, off, err = readVarint(data, off); err != nil {
			return err
		}
		r.Ts = ts
		var key uint64
		if key, off, err = readUvarint(data, off); err != nil {
			return err
		}
		r.Key = key
		if off >= len(data) {
			return fmt.Errorf("wire batch: truncated payload tag at record %d", i)
		}
		tag := data[off]
		off++
		switch tag {
		case pNil:
		case pFloat64:
			var bits uint64
			if bits, off, err = readFixed64(data, off); err != nil {
				return err
			}
			r.Value = math.Float64frombits(bits)
		case pInt64:
			var v int64
			if v, off, err = readVarint(data, off); err != nil {
				return err
			}
			r.Value = v
		case pInt:
			var v int64
			if v, off, err = readVarint(data, off); err != nil {
				return err
			}
			r.Value = int(v)
		case pUint64:
			var v uint64
			if v, off, err = readUvarint(data, off); err != nil {
				return err
			}
			r.Value = v
		case pString:
			var ln uint64
			if ln, off, err = readUvarint(data, off); err != nil {
				return err
			}
			if uint64(len(data)-off) < ln {
				return fmt.Errorf("wire batch: truncated string at record %d", i)
			}
			r.Value = string(data[off : off+int(ln)])
			off += int(ln)
		case pBool:
			if off >= len(data) {
				return fmt.Errorf("wire batch: truncated bool at record %d", i)
			}
			r.Value = data[off] != 0
			off++
		case pWindowResult:
			var w dataflow.WindowResult
			var v int64
			if v, off, err = readVarint(data, off); err != nil {
				return err
			}
			w.QueryID = int(v)
			if w.Start, off, err = readVarint(data, off); err != nil {
				return err
			}
			if w.End, off, err = readVarint(data, off); err != nil {
				return err
			}
			var bits uint64
			if bits, off, err = readFixed64(data, off); err != nil {
				return err
			}
			w.Value = math.Float64frombits(bits)
			if w.Count, off, err = readVarint(data, off); err != nil {
				return err
			}
			r.Value = w
		case pJoinedPair:
			var j dataflow.JoinedPair
			if j.WindowStart, off, err = readVarint(data, off); err != nil {
				return err
			}
			if j.WindowEnd, off, err = readVarint(data, off); err != nil {
				return err
			}
			var bits uint64
			if bits, off, err = readFixed64(data, off); err != nil {
				return err
			}
			j.Left = math.Float64frombits(bits)
			if bits, off, err = readFixed64(data, off); err != nil {
				return err
			}
			j.Right = math.Float64frombits(bits)
			r.Value = j
		case pGob:
			var ln uint64
			if ln, off, err = readUvarint(data, off); err != nil {
				return err
			}
			if uint64(len(data)-off) < ln {
				return fmt.Errorf("wire batch: truncated gob payload at record %d", i)
			}
			var v any
			if err := gob.NewDecoder(bytes.NewReader(data[off : off+int(ln)])).Decode(&v); err != nil {
				return fmt.Errorf("wire batch: decode gob payload: %w", err)
			}
			r.Value = v
			off += int(ln)
		default:
			return fmt.Errorf("wire batch: unknown payload tag %d at record %d", tag, i)
		}
		out = append(out, r)
	}
	if off != len(data) {
		return fmt.Errorf("wire batch: %d trailing bytes", len(data)-off)
	}
	b.recs = out
	return nil
}

func readUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("wire batch: bad uvarint at offset %d", off)
	}
	return v, off + n, nil
}

func readVarint(data []byte, off int) (int64, int, error) {
	v, n := binary.Varint(data[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("wire batch: bad varint at offset %d", off)
	}
	return v, off + n, nil
}

func readFixed64(data []byte, off int) (uint64, int, error) {
	if len(data)-off < 8 {
		return 0, off, fmt.Errorf("wire batch: truncated fixed64 at offset %d", off)
	}
	return binary.LittleEndian.Uint64(data[off : off+8]), off + 8, nil
}
