package dataflow

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// scanLine is one record a line scan should produce: the line's start
// offset and its text.
type scanLine struct {
	off  int64
	text string
}

// nonBlankLines splits raw file bytes the way the line reader does —
// newline-terminated, one trailing \r stripped, an unterminated last line
// kept — and drops blank lines, as fuzzLineDecode does.
func nonBlankLines(data []byte) []scanLine {
	var out []scanLine
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		next := off + end + 1
		if end < 0 {
			end = len(data) - off
			next = len(data)
		}
		line := data[off : off+end]
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(bytes.TrimSpace(line)) > 0 {
			out = append(out, scanLine{off: int64(off), text: string(line)})
		}
		off = next
	}
	return out
}

func fuzzLineDecode(line []byte, off int64) (Record, bool, error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return Record{}, false, nil
	}
	return Data(off, 0, string(line)), true, nil
}

// fuzzScanReader is one subtask of a fuzzed scan and what it has read.
type fuzzScanReader struct {
	src  *FileScanSource
	done bool
	got  []Record
}

func newFuzzScan(plan *ScanPlan, par int) []*fuzzScanReader {
	rs := make([]*fuzzScanReader, par)
	for i := range rs {
		rs[i] = &fuzzScanReader{src: &FileScanSource{Plan: plan, Subtask: i, Parallelism: par, DecodeLine: fuzzLineDecode}}
	}
	return rs
}

// driveFuzzScan makes up to steps reads (steps < 0: until every reader is
// exhausted), each on a random live reader and either one Next or one
// NextBatch of at most max records.
func driveFuzzScan(t *testing.T, rng *rand.Rand, rs []*fuzzScanReader, max, steps int) {
	t.Helper()
	for step := 0; steps < 0 || step < steps; step++ {
		var live []*fuzzScanReader
		for _, r := range rs {
			if !r.done {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			return
		}
		r := live[rng.Intn(len(live))]
		if rng.Intn(2) == 0 {
			rec, ok := r.src.Next()
			if !ok {
				r.done = true
				continue
			}
			r.got = append(r.got, rec)
			continue
		}
		b := r.src.NextBatch(nil, max)
		if len(b) > max {
			t.Fatalf("NextBatch(max %d) returned %d records", max, len(b))
		}
		if len(b) == 0 {
			r.done = true
		}
		r.got = append(r.got, b...)
	}
}

// splitOf returns the index of the split holding offset off: a line belongs
// to the split it starts in.
func splitOf(splits []Split, off int64) int {
	for i, sp := range splits {
		if off >= sp.Start && off < sp.End {
			return i
		}
	}
	return -1
}

// FuzzScanSplits checks split tiling and batched reads of the line scan on
// arbitrary file bytes. A pure-Next scan at parallelism 1 must read every
// non-blank line once, in file order. A scan at parallelism 1-3 that mixes
// Next and NextBatch calls (max 1-300) at random, is snapshotted at a fuzzed
// step and restored into a fresh plan at parallelism 1-3 must read every
// line exactly once as well, and each split's lines in the same order as
// the pure-Next scan.
func FuzzScanSplits(f *testing.F) {
	f.Add([]byte("a\nbb\n\nccc\r\n  \ndddd"), uint16(3), uint8(1), uint8(0), uint16(1), int64(1), uint16(4))
	f.Add([]byte("{\"k\":1}\n{\"k\":2}\n{\"k\":3}\n{\"k\":4}\n"), uint16(7), uint8(2), uint8(1), uint16(299), int64(7), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, splitSize uint16, par, restorePar uint8, max uint16, seed int64, snapAt uint16) {
		if len(data) > 1<<16 {
			return
		}
		size := int64(splitSize%512) + 1
		p, rp, m := int(par%3)+1, int(restorePar%3)+1, int(max%300)+1
		path := filepath.Join(t.TempDir(), "in.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// The pure-Next reference reads every non-blank line once, in order.
		want := nonBlankLines(data)
		refPlan := &ScanPlan{Inputs: []string{path}, SplitSize: size}
		ref := &FileScanSource{Plan: refPlan, Subtask: 0, Parallelism: 1, DecodeLine: fuzzLineDecode}
		var refRecs []Record
		for {
			r, ok := ref.Next()
			if !ok {
				break
			}
			refRecs = append(refRecs, r)
		}
		if err := ref.Err(); err != nil {
			t.Fatalf("reference scan: %v", err)
		}
		if len(refRecs) != len(want) {
			t.Fatalf("reference scan read %d lines, want %d", len(refRecs), len(want))
		}
		for i, r := range refRecs {
			if r.Ts != want[i].off || r.Value.(string) != want[i].text {
				t.Fatalf("reference line %d = (%d, %q), want (%d, %q)", i, r.Ts, r.Value, want[i].off, want[i].text)
			}
		}
		splits, err := refPlan.Splits()
		if err != nil {
			t.Fatal(err)
		}
		wantBySplit := make([][]Record, len(splits))
		for _, r := range refRecs {
			i := splitOf(splits, r.Ts)
			if i < 0 {
				t.Fatalf("line at %d lies in no split", r.Ts)
			}
			wantBySplit[i] = append(wantBySplit[i], r)
		}

		// The fuzzed scan: random reads, a snapshot of every subtask at
		// step snapAt, a restore into a fresh plan, then reads to the end.
		rng := rand.New(rand.NewSource(seed))
		before := newFuzzScan(&ScanPlan{Inputs: []string{path}, SplitSize: size}, p)
		driveFuzzScan(t, rng, before, m, int(snapAt))
		blobs := map[int][]byte{}
		for i, r := range before {
			if blobs[i], err = r.src.Snapshot(); err != nil {
				t.Fatalf("snapshot subtask %d: %v", i, err)
			}
		}
		after := newFuzzScan(&ScanPlan{Inputs: []string{path}, SplitSize: size}, rp)
		for i, r := range after {
			if err := r.src.RestoreAll(i, rp, blobs); err != nil {
				t.Fatalf("restore subtask %d/%d: %v", i, rp, err)
			}
		}
		driveFuzzScan(t, rng, after, m, -1)

		gotBySplit := make([][]Record, len(splits))
		for _, r := range append(before, after...) {
			if err := r.src.Err(); err != nil {
				t.Fatalf("scan: %v", err)
			}
			for _, rec := range r.got {
				i := splitOf(splits, rec.Ts)
				if i < 0 {
					t.Fatalf("record at %d lies in no split", rec.Ts)
				}
				gotBySplit[i] = append(gotBySplit[i], rec)
			}
		}
		// A split is read by one subtask at a time, and by at most one on
		// each side of the restore; the snapshot side comes first.
		for i := range splits {
			if len(gotBySplit[i]) != len(wantBySplit[i]) {
				t.Fatalf("split %d [%d,%d): read %d lines, want %d", i, splits[i].Start, splits[i].End, len(gotBySplit[i]), len(wantBySplit[i]))
			}
			for j, r := range gotBySplit[i] {
				w := wantBySplit[i][j]
				if r.Ts != w.Ts || r.Value != w.Value {
					t.Fatalf("split %d line %d = (%d, %q), want (%d, %q)", i, j, r.Ts, r.Value, w.Ts, w.Value)
				}
			}
		}
	})
}
