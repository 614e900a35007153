package transport

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/state"
)

// customPayload stands in for a user-defined record payload registered via
// RegisterTypes' variadic extras.
type customPayload struct {
	Name  string
	Score float64
}

// TestFrameRoundTrip pushes every record kind a data-plane connection
// carries through one persistent gob encoder/decoder pair — the exact wiring
// a Mesh connection uses — and requires bit-identical frames on the far
// side, in order. Interface payloads (WindowResult, JoinedPair, custom
// structs) exercise the RegisterTypes contract.
func TestFrameRoundTrip(t *testing.T) {
	RegisterTypes(customPayload{})

	ref := dataflow.ChannelRef{Node: 7, Edge: 1, To: 2, From: 3}
	frames := []frame{
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{
			dataflow.Data(101, 4, "hello"),
			dataflow.Data(102, 4, 3.5),
			dataflow.Data(103, 5, int64(42)),
		}}},
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{
			dataflow.Data(104, 6, dataflow.WindowResult{QueryID: 2, Start: 100, End: 200, Value: 9.5, Count: 3}),
			dataflow.Data(105, 6, dataflow.JoinedPair{WindowStart: 100, WindowEnd: 200, Left: 1, Right: 2}),
			dataflow.Data(106, 7, customPayload{Name: "x", Score: 0.25}),
		}}},
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{
			dataflow.Data(107, 8, nil),
			dataflow.Data(108, 8, 11),
			dataflow.Data(109, 8, uint64(1<<40)),
			dataflow.Data(110, 8, true),
		}}},
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{dataflow.Watermark(150)}}},
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{dataflow.Barrier(9)}}},
		{Ref: ref, Recs: wireBatch{recs: []dataflow.Record{dataflow.End()}}},
	}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}

	dec := gob.NewDecoder(&buf)
	for i, want := range frames {
		// Fresh frame per message, as Mesh.readLoop does: gob reuses slice
		// backing arrays of the destination otherwise.
		var got frame
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left over after decoding all frames", buf.Len())
	}
}

// TestControlRoundTrip round-trips the control protocol's richest message —
// a plan carrying a restore snapshot — plus an ack with keyed-state groups.
func TestControlRoundTrip(t *testing.T) {
	snap := state.NewSnapshot(4)
	snap.NumKeyGroups = 16
	snap.Put(state.SubtaskKey{OperatorID: 3, Subtask: 1}, []byte("src-cursor"))
	snap.PutGroup(state.GroupKey{OperatorID: 5, KeyGroup: 9}, []byte("kg9"))

	msgs := []ctrlMsg{
		{Kind: ctrlHello, Addr: "127.0.0.1:4242"},
		{Kind: ctrlPlan, Plan: &planMsg{
			Self: 2, Workers: 3,
			Spec: dataflow.PlanSpec{Name: "wordcount", BatchSize: 64, Nodes: []dataflow.NodeSpec{
				{ID: 1, Name: "src", Parallelism: 2, Source: true},
				{ID: 2, Name: "sink", Parallelism: 1, Pinned: true, In: []dataflow.EdgeSpec{{From: 1, Part: 2}}},
			}},
			Fingerprint: "abc123",
			Placement:   dataflow.Placement{1: {1, 2}, 2: {0}},
			DataAddrs:   map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"},
			Restore:     snap,
			Pipeline:    "wordcount",
			Args:        []string{"-n", "10"},
		}},
		{Kind: ctrlTrigger, Ckpt: 12},
		{Kind: ctrlAck, Ack: &dataflow.Ack{
			Ckpt: 12,
			Key:  state.SubtaskKey{OperatorID: 5, Subtask: 0},
			Blob: []byte("blob"),
			Groups: map[int][]byte{
				3: []byte("g3"),
				7: []byte("g7"),
			},
		}},
		{Kind: ctrlDone, Err: "worker lost"},
	}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i, want := range msgs {
		var got ctrlMsg
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d = %+v, want %+v", i, got, want)
		}
	}
}
