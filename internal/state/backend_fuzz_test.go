package state

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"testing"
)

// validSnapshotID is the checkpoint the fuzz target persists intact; the
// fuzzed files land on both sides of it.
const validSnapshotID = 10

// fuzzFileIDs maps a layout byte to the checkpoint IDs the fuzzed files are
// written under: 1-3 files (layout%3+1), file j newer than the valid
// snapshot when bit 2+j is set, older otherwise.
func fuzzFileIDs(layout uint8) []int64 {
	ids := make([]int64, int(layout%3)+1)
	for j := range ids {
		if layout&(1<<(2+j)) != 0 {
			ids[j] = validSnapshotID + int64(j) + 1
		} else {
			ids[j] = validSnapshotID - int64(j) - 1
		}
	}
	return ids
}

// FuzzFileBackendLatest writes fuzzed bytes as one or more chk-*.gob files
// next to one valid snapshot: the input's first byte picks the layout (see
// fuzzFileIDs), the rest is split evenly across the files. Latest must not
// panic, must find a snapshot (the valid one is always readable), must
// return the newest file that reads cleanly, and must report an error
// exactly when a newer file was skipped as unreadable.
func FuzzFileBackendLatest(f *testing.F) {
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(fileSnapshot{CheckpointID: 12, NumKeyGroups: 8,
		Keys: []SubtaskKey{{OperatorID: 1}}, Blobs: [][]byte{[]byte("x")}}); err != nil {
		f.Fatal(err)
	}
	// A well-formed gob stream whose keys outnumber its blobs must read as
	// corrupt rather than index past the end of Blobs.
	var unpaired bytes.Buffer
	if err := gob.NewEncoder(&unpaired).Encode(struct {
		CheckpointID int64
		Keys         []SubtaskKey
	}{CheckpointID: 11, Keys: []SubtaskKey{{OperatorID: 1}}}); err != nil {
		f.Fatal(err)
	}
	// Both seeds land as one file newer than the valid snapshot; the
	// committed corpus under testdata/fuzz holds the other layouts.
	f.Add(append([]byte{0b1100}, valid.Bytes()...))
	f.Add(append([]byte{0b1100}, unpaired.Bytes()...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		layout, data := in[0], in[1:]
		b, err := NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want := sample(validSnapshotID)
		want.PutGroup(GroupKey{OperatorID: 3, KeyGroup: 5}, []byte("group"))
		if err := b.Persist(want); err != nil {
			t.Fatal(err)
		}
		ids := fuzzFileIDs(layout)
		for j, id := range ids {
			chunk := data[j*len(data)/len(ids) : (j+1)*len(data)/len(ids)]
			if err := os.WriteFile(b.path(id), chunk, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// The oracle: the newest ID whose file loads on its own, and whether
		// any unreadable file is newer still.
		newest, unreadable := int64(validSnapshotID), int64(0)
		for _, id := range ids {
			if _, err := b.Load(id); err == nil {
				newest = max(newest, id)
			} else {
				unreadable = max(unreadable, id)
			}
		}
		skipped := unreadable > newest
		if newest != validSnapshotID {
			if want, err = b.Load(newest); err != nil {
				t.Fatal(err)
			}
		}

		got, ok, err := b.Latest()
		if !ok {
			t.Fatalf("Latest found no snapshot next to a valid one (err %v)", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Latest returned %+v, want the snapshot in file %d: %+v", got, newest, want)
		}
		if skipped != (err != nil) {
			t.Fatalf("Latest error %v, but a newer unreadable file skipped = %v", err, skipped)
		}
	})
}
