package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dataflow"
)

// wireSeedBatches covers every payload tag of the wire codec, including
// the gob fallback, and every record kind.
func wireSeedBatches() [][]dataflow.Record {
	return [][]dataflow.Record{
		{},
		{dataflow.Data(-3, 0, nil), dataflow.Data(1, 1<<63, 2.5), dataflow.Data(2, 7, int64(-9))},
		{dataflow.Data(3, 4, 11), dataflow.Data(4, 4, uint64(1<<40)), dataflow.Data(5, 4, "hello"), dataflow.Data(6, 4, true)},
		{dataflow.Data(100, 6, dataflow.WindowResult{QueryID: 1, Start: 0, End: 100, Value: 3.5, Count: 2})},
		{dataflow.Data(200, 6, dataflow.JoinedPair{WindowStart: 100, WindowEnd: 200, Left: 1, Right: -1})},
		{dataflow.Data(7, 8, customPayload{Name: "x", Score: 0.25})},
		{dataflow.Watermark(150), dataflow.Barrier(9), dataflow.End()},
	}
}

// TestWireBatchRejectsOversizedCount is the regression test for the
// decoder sizing its record slice from an unchecked count: a 6-byte frame
// claiming 2^40 records used to abort the process with an out-of-memory
// fatal error that recover cannot catch.
func TestWireBatchRejectsOversizedCount(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<40)
	if len(data) != 6 {
		t.Fatalf("frame is %d bytes, want 6", len(data))
	}
	var b wireBatch
	if err := b.GobDecode(data); err == nil {
		t.Fatalf("decoded %d records from a 6-byte frame", len(b.recs))
	}
	// The bound is tight: a count the bytes can hold still decodes.
	ok := append(binary.AppendUvarint(nil, 1), byte(dataflow.KindData), 0, 0, pNil)
	if err := b.GobDecode(ok); err != nil || len(b.recs) != 1 {
		t.Fatalf("minimal one-record frame: %d records, err %v", len(b.recs), err)
	}
}

// FuzzWireBatchDecode feeds the data-plane batch decoder arbitrary bytes.
// Decoding must fail cleanly or succeed; whatever decodes must re-encode,
// and the re-encoding must decode and encode to the same bytes again.
func FuzzWireBatchDecode(f *testing.F) {
	RegisterTypes(customPayload{})
	for _, recs := range wireSeedBatches() {
		data, err := wireBatch{recs: recs}.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b wireBatch
		if err := b.GobDecode(data); err != nil {
			return
		}
		enc, err := b.GobEncode()
		if err != nil {
			t.Fatalf("re-encode of a decoded batch: %v", err)
		}
		var again wireBatch
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("decode of a re-encoded batch: %v", err)
		}
		enc2, err := again.GobEncode()
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n %x\n %x", enc, enc2)
		}
	})
}
