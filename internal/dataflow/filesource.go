package dataflow

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
)

// File sources bring data at rest into the engine as plain streams that end —
// the same code path as data in motion. The unit of work is the byte-range
// Split (see split.go): each subtask pulls splits from the stage's shared
// ScanPlan, scans its split with a reused buffer, and snapshots
// (split id, byte offset), so restore Seeks straight to the position instead
// of re-reading the file from the start. Because any subtask can process any
// split, the snapshot state is not positional and a recovered job may run
// the source at a different parallelism — the remaining splits simply
// redistribute.

// maxLineBytes bounds a single line (4 MiB).
const maxLineBytes = 4 << 20

// LineDecode turns one line (without its newline) into a record; off is the
// byte offset of the line's first byte in its file (a scan restored from a
// pre-split snapshot passes the global row index instead — the legacy
// contract, so default timestamps keep their domain). The line buffer is
// only valid during the call. keep=false skips the line (blanks, comments).
type LineDecode func(line []byte, off int64) (r Record, keep bool, err error)

// RowDecode turns one CSV row into a record; off is the byte offset of the
// row's first byte in its file (row index under a legacy restore, like
// LineDecode). The row slice is only valid during the call.
type RowDecode func(row []string, off int64) (r Record, err error)

// ScanConfig describes one at-rest scan for the factory helpers below.
type ScanConfig struct {
	// Input is a literal file path, a directory, or a filepath.Match glob.
	Input string
	// SplitSize is the target split length in bytes (<= 0 uses
	// DefaultSplitSize).
	SplitSize int64
	// Header marks the first CSV row of every file as a header to skip
	// (CSV factories only).
	Header bool
}

// LineSourceFactory returns a SourceFactory scanning newline-delimited
// files. All subtasks of one execution share a single ScanPlan — the
// factory creates a fresh plan when subtask 0 is instantiated (the runtime
// builds subtasks in order), so re-running a graph re-plans the scan.
func LineSourceFactory(cfg ScanConfig, decode LineDecode) SourceFactory {
	var plan *ScanPlan
	return func(sub, par int) SourceFunc {
		if sub == 0 || plan == nil {
			plan = &ScanPlan{Inputs: []string{cfg.Input}, SplitSize: cfg.SplitSize}
		}
		return &FileScanSource{Plan: plan, Subtask: sub, Parallelism: par, DecodeLine: decode}
	}
}

// CSVSourceFactory returns a SourceFactory scanning CSV files, planned with
// quote-aware splits (see ScanPlan.CSV). Plan sharing works like
// LineSourceFactory.
func CSVSourceFactory(cfg ScanConfig, decode RowDecode) SourceFactory {
	var plan *ScanPlan
	return func(sub, par int) SourceFunc {
		if sub == 0 || plan == nil {
			plan = &ScanPlan{Inputs: []string{cfg.Input}, SplitSize: cfg.SplitSize, CSV: true, Header: cfg.Header}
		}
		return &FileScanSource{Plan: plan, Subtask: sub, Parallelism: par, DecodeRow: decode}
	}
}

// FileScanSource is one subtask of a splittable at-rest scan. Exactly one of
// DecodeLine / DecodeRow must be set, matching the plan's mode (DecodeRow
// requires Plan.CSV). All subtasks of a stage must share the same Plan.
type FileScanSource struct {
	Plan                 *ScanPlan
	Subtask, Parallelism int
	DecodeLine           LineDecode
	DecodeRow            RowDecode

	err  error
	done bool

	// current split
	cur      splitCursor
	hasCur   bool
	startOff int64 // where consumption of cur began (metrics)
	f        *os.File
	path     string // path f is open on
	rd       *bufio.Reader
	cr       *csv.Reader
	base     int64 // absolute offset cr started at (CSV mode)
	off      int64 // absolute offset of the next unread byte (line mode)
	lineBuf  []byte

	completed []int

	// legacy round-robin mode (restored from a pre-split snapshot)
	legacy     bool
	legacyNext int64 // restore target: skip rows below this global index
	legacyCur  int64 // global index of the next row
	legacyOpen bool

	// scan observability (OpenSource): counters are per source node, deltas
	// are accumulated locally and flushed at split boundaries and snapshots.
	mRecords, mBytes, mSplits          *metrics.Counter
	pendRecords, pendBytes, pendSplits int64
}

// OpenSource implements SourceOpener: the runtime hands the subtask's
// OpContext before restore and the first Next, and the scan registers its
// per-node observability counters on it.
func (s *FileScanSource) OpenSource(ctx *OpContext) {
	s.Plan.SetOwnedSubtasks(ctx.LocalSubtasks, ctx.Parallelism)
	if ctx.Metrics == nil {
		return
	}
	s.mRecords = ctx.Metrics.Counter("node." + ctx.NodeName + ".records_out")
	s.mBytes = ctx.Metrics.Counter("node." + ctx.NodeName + ".bytes_scanned")
	s.mSplits = ctx.Metrics.Counter("node." + ctx.NodeName + ".splits_completed")
}

// flushMetrics publishes the locally accumulated counter deltas.
func (s *FileScanSource) flushMetrics() {
	if s.mRecords != nil && s.pendRecords != 0 {
		s.mRecords.Add(s.pendRecords)
		s.pendRecords = 0
	}
	if s.mBytes != nil && s.pendBytes != 0 {
		s.mBytes.Add(s.pendBytes)
		s.pendBytes = 0
	}
	if s.mSplits != nil && s.pendSplits != 0 {
		s.mSplits.Add(s.pendSplits)
		s.pendSplits = 0
	}
}

// Unordered reports that a split scan does not emit records in timestamp
// order: splits are assigned dynamically, so one subtask's stream may jump
// backward in file position between splits. Event time over a split scan is
// closed out at end of stream (or a composite's handoff watermark), not by
// in-flight cadence watermarks.
func (s *FileScanSource) Unordered() bool { return true }

// Err implements Failable.
func (s *FileScanSource) Err() error { return s.err }

func (s *FileScanSource) fail(err error) (Record, bool) {
	s.err = err
	s.closeFile()
	return Record{}, false
}

func (s *FileScanSource) closeFile() {
	if s.f != nil {
		s.f.Close()
		s.f, s.path, s.cr = nil, "", nil
	}
}

// openAt positions the reader at the absolute offset in path, reusing the
// open file handle when the path matches.
func (s *FileScanSource) openAt(path string, off int64) error {
	if s.f == nil || s.path != path {
		s.closeFile()
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s.f = f
		s.path = path
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	if s.rd == nil {
		s.rd = bufio.NewReaderSize(s.f, 64*1024)
	} else {
		s.rd.Reset(s.f)
	}
	s.cr = nil
	s.off = off
	return nil
}

// readLine reads one line at s.off, returning its start offset and the line
// without its newline (a trailing \r is stripped, like bufio.Scanner).
// ok=false means clean end of file.
func (s *FileScanSource) readLine() (line []byte, start int64, ok bool, err error) {
	start = s.off
	s.lineBuf = s.lineBuf[:0]
	for {
		chunk, rerr := s.rd.ReadSlice('\n')
		s.off += int64(len(chunk))
		if rerr == bufio.ErrBufferFull {
			if len(s.lineBuf)+len(chunk) > maxLineBytes {
				return nil, start, false, fmt.Errorf("line at offset %d exceeds %d bytes", start, maxLineBytes)
			}
			s.lineBuf = append(s.lineBuf, chunk...)
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return nil, start, false, rerr
		}
		if len(s.lineBuf) > 0 {
			s.lineBuf = append(s.lineBuf, chunk...)
			line = s.lineBuf
		} else {
			line = chunk
		}
		if len(line) == 0 && rerr == io.EOF {
			return nil, start, false, nil
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, start, true, nil
	}
}

// openSplit positions the reader at the split's first record. A fresh split
// (offset < 0) aligns: reading starts at Start-1 and the partial line is
// discarded (it belongs to the split it starts in), the standard byte-range
// alignment trick; a resumed split Seeks straight to the recorded record
// boundary — the O(remaining split) restore path.
func (s *FileScanSource) openSplit(c splitCursor) error {
	s.cur, s.hasCur = c, true
	sp := c.split
	// startOff anchors the bytes_scanned accounting: fresh splits count from
	// their range start (splits tile the input, so the per-node sum equals
	// the total input size), resumed splits from the resume position.
	if c.offset >= 0 {
		if err := s.openAt(sp.Path, c.offset); err != nil {
			return err
		}
		s.startOff = c.offset
	} else if sp.Start == 0 {
		if err := s.openAt(sp.Path, 0); err != nil {
			return err
		}
		s.startOff = 0
	} else {
		if err := s.openAt(sp.Path, sp.Start-1); err != nil {
			return err
		}
		if _, _, _, err := s.readLine(); err != nil {
			return err
		}
		s.startOff = sp.Start
	}
	if s.Plan.CSV {
		// The alignment path reads through the buffered reader, which may
		// have pulled the file position ahead of s.off; re-anchor the file
		// before handing it to the CSV parser, whose InputOffset is relative
		// to this base.
		if _, err := s.f.Seek(s.off, io.SeekStart); err != nil {
			return err
		}
		s.base = s.off
		s.cr = csv.NewReader(s.f)
		s.cr.FieldsPerRecord = -1
		if s.Plan.Header && s.off == 0 {
			if _, err := s.cr.Read(); err != nil && err != io.EOF {
				return fmt.Errorf("header: %w", err)
			}
		}
	}
	return nil
}

// curOffset returns the absolute offset of the next unread record of the
// current split.
func (s *FileScanSource) curOffset() int64 {
	if s.Plan.CSV && s.cr != nil {
		return s.base + s.cr.InputOffset()
	}
	return s.off
}

// completeSplit retires the current split.
func (s *FileScanSource) completeSplit() {
	s.completed = append(s.completed, s.cur.split.ID)
	s.pendSplits++
	s.pendBytes += s.cur.split.End - s.startOff
	s.hasCur = false
	s.flushMetrics()
}

// Next implements SourceFunc.
func (s *FileScanSource) Next() (Record, bool) {
	if s.err != nil || s.done {
		return Record{}, false
	}
	if s.legacy {
		return s.nextLegacy()
	}
	for {
		if !s.hasCur {
			c, ok, err := s.Plan.acquire()
			if err != nil {
				return s.fail(err)
			}
			if !ok {
				s.done = true
				s.closeFile()
				s.flushMetrics()
				return Record{}, false
			}
			if err := s.openSplit(c); err != nil {
				return s.fail(fmt.Errorf("scan %q split %d: %w", c.split.Path, c.split.ID, err))
			}
		}
		r, ok, err := s.nextInSplit()
		if err != nil {
			return s.fail(err)
		}
		if ok {
			s.pendRecords++
			return r, true
		}
		s.completeSplit()
	}
}

// NextBatch implements BatchSource: file reads never wait on a producer.
// Each record goes through Next, so split bookkeeping, snapshots and scan
// metrics are those of a record-at-a-time scan.
func (s *FileScanSource) NextBatch(dst []Record, max int) []Record {
	return readBatch(dst, max, s.Next)
}

// nextInSplit emits the next record of the current split; ok=false means the
// split is exhausted (a record starting before End is consumed entirely,
// even when it extends past it).
func (s *FileScanSource) nextInSplit() (Record, bool, error) {
	sp := s.cur.split
	if s.Plan.CSV {
		start := s.base + s.cr.InputOffset()
		if start >= sp.End {
			return Record{}, false, nil
		}
		row, err := s.cr.Read()
		if err == io.EOF {
			return Record{}, false, nil
		}
		if err != nil {
			return Record{}, false, fmt.Errorf("csv %q: %w", sp.Path, err)
		}
		r, derr := s.DecodeRow(row, start)
		if derr != nil {
			return Record{}, false, fmt.Errorf("csv %q offset %d: %w", sp.Path, start, derr)
		}
		return r, true, nil
	}
	for s.off < sp.End {
		line, start, ok, err := s.readLine()
		if err != nil {
			return Record{}, false, fmt.Errorf("scan %q: %w", sp.Path, err)
		}
		if !ok {
			return Record{}, false, nil
		}
		r, keep, derr := s.DecodeLine(line, start)
		if derr != nil {
			return Record{}, false, fmt.Errorf("scan %q offset %d: %w", sp.Path, start, derr)
		}
		if !keep {
			continue
		}
		return r, true, nil
	}
	return Record{}, false, nil
}

// ---- legacy round-robin mode ----------------------------------------------

// nextLegacy replays the pre-split behavior for sources restored from an old
// fileCursorState snapshot: one file, rows assigned round-robin by global
// index, scanning from the start and skipping rows below the restore target.
// The decode callback receives the global row *index* as its offset — the
// pre-split contract — so default event timestamps stay in the row-index
// domain the job's checkpointed downstream state was built in. The job keeps
// this mode (and its positional snapshots) until it completes; fresh
// executions plan splits.
func (s *FileScanSource) nextLegacy() (Record, bool) {
	par := s.Parallelism
	if par <= 0 {
		par = 1
	}
	if !s.legacyOpen {
		path, err := s.Plan.legacyInput()
		if err != nil {
			return s.fail(err)
		}
		if err := s.openAt(path, 0); err != nil {
			return s.fail(fmt.Errorf("scan %q: %w", path, err))
		}
		s.legacyCur = 0
		if s.Plan.CSV {
			s.base = 0
			s.cr = csv.NewReader(s.f)
			s.cr.FieldsPerRecord = -1
			if s.Plan.Header {
				if _, err := s.cr.Read(); err != nil && err != io.EOF {
					return s.fail(fmt.Errorf("csv %q: header: %w", path, err))
				}
			}
		}
		s.legacyOpen = true
	}
	for {
		var (
			line []byte
			row  []string
		)
		if s.Plan.CSV {
			rw, err := s.cr.Read()
			if err == io.EOF {
				s.legacyEnd()
				return Record{}, false
			}
			if err != nil {
				return s.fail(fmt.Errorf("csv %q: %w", s.path, err))
			}
			row = rw
		} else {
			l, _, ok, err := s.readLine()
			if err != nil {
				return s.fail(fmt.Errorf("scan %q: %w", s.path, err))
			}
			if !ok {
				s.legacyEnd()
				return Record{}, false
			}
			line = l
		}
		idx := s.legacyCur
		s.legacyCur++
		if idx < s.legacyNext || idx%int64(par) != int64(s.Subtask%par) {
			continue
		}
		if s.Plan.CSV {
			r, err := s.DecodeRow(row, idx)
			if err != nil {
				return s.fail(fmt.Errorf("csv %q row %d: %w", s.path, idx+1, err))
			}
			s.pendRecords++
			return r, true
		}
		r, keep, err := s.DecodeLine(line, idx)
		if err != nil {
			return s.fail(fmt.Errorf("scan %q line %d: %w", s.path, idx+1, err))
		}
		if !keep {
			continue
		}
		s.pendRecords++
		return r, true
	}
}

// legacyEnd finishes the legacy scan, recording the end position so a later
// snapshot does not replay the file (mirrors the pre-split close behavior).
// curOffset covers both modes (the CSV parser tracks consumption through
// InputOffset, not s.off).
func (s *FileScanSource) legacyEnd() {
	s.done = true
	s.legacyNext = s.legacyCur
	s.legacyOpen = false
	s.pendBytes += s.curOffset()
	s.closeFile()
	s.flushMetrics()
}

// ---- snapshot / restore ----------------------------------------------------

// Snapshot implements SourceFunc: the versioned split-scan state (see
// splitScanState). Restore Seeks, it does not re-scan.
func (s *FileScanSource) Snapshot() ([]byte, error) {
	s.flushMetrics()
	if s.legacy {
		next := s.legacyCur
		if !s.legacyOpen {
			next = s.legacyNext
		}
		return encodeScanState(splitScanState{V: splitStateVersion, CurID: -1, Legacy: next})
	}
	st := splitScanState{V: splitStateVersion, Completed: s.completed, CurID: -1, Legacy: -1}
	if s.hasCur {
		st.CurID = s.cur.split.ID
		st.CurPath = s.cur.split.Path
		st.CurOff = s.curOffset()
	}
	if s.Subtask == 0 {
		// Like the completed-ID carry, subtask 0 keeps the restored
		// in-flight cursors that no subtask has re-acquired yet alive in the
		// checkpoint — otherwise a second recovery would re-scan those
		// splits from their start. It also records the plan geometry, so a
		// restore against differently-chopped inputs fails loudly instead of
		// remapping split IDs onto different byte ranges.
		st.Pending = s.Plan.pendingResumed()
		sig, err := s.Plan.signature()
		if err != nil {
			return nil, err
		}
		st.Plan = sig
	}
	return encodeScanState(st)
}

var (
	_ MultiRestorable = (*FileScanSource)(nil)
	_ SourceOpener    = (*FileScanSource)(nil)
	_ Failable        = (*FileScanSource)(nil)
)

// Restore implements SourceFunc for a single-subtask stage; it is shorthand
// for RestoreAll with only this subtask's blob. Stages with more than one
// subtask must restore through RestoreAll so the shared plan sees every
// subtask's completed and in-flight splits.
func (s *FileScanSource) Restore(blob []byte) error {
	return s.RestoreAll(s.Subtask, s.Parallelism, map[int][]byte{s.Subtask: blob})
}

// RestoreAll implements MultiRestorable: blobs carries the snapshot of every
// subtask of the checkpointing job, keyed by its old subtask index. The
// shared plan rebuilds the split queue once (pending = planned − completed,
// in-flight splits resume at their byte offsets), so the restoring stage may
// run at any parallelism. Legacy (pre-split) snapshots convert to
// round-robin cursors and require the original parallelism.
func (s *FileScanSource) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	if subtask != s.Subtask || parallelism != s.Parallelism {
		return fmt.Errorf("scan restore: RestoreAll(%d/%d) does not match the reader's subtask %d/%d", subtask, parallelism, s.Subtask, s.Parallelism)
	}
	if err := s.Plan.restoreFrom(blobs, s.Parallelism); err != nil {
		return err
	}
	s.closeFile()
	s.err, s.done, s.hasCur = nil, false, false
	s.completed = nil
	next, legacyMode, carry := s.Plan.restoredState(s.Subtask)
	if legacyMode {
		s.legacy, s.legacyNext, s.legacyOpen = true, next, false
		return nil
	}
	s.legacy = false
	s.completed = carry
	return nil
}
