// Package state implements STREAMLINE's keyed-state and snapshot layer.
//
// # Key groups
//
// The physical unit of keyed state is the key group: every key maps to
// Hash64(key) % NumKeyGroups (a constant of the logical plan, default
// DefaultNumKeyGroups), and key groups map onto operator subtasks by
// contiguous range (GroupRangeFor / SubtaskForGroup). Hash-partitioned
// edges route records with the same functions, so the subtask that receives
// a key is always the subtask that owns its state. Because snapshots store
// one blob per (operator, key group) — not per subtask — a checkpoint taken
// at one parallelism restores at any other: the new subtasks simply load
// the groups of their new ranges.
//
// # KeyedState and asynchronous snapshots
//
// Operators keep their per-key state in a KeyedState: named, typed cells
// (MapCell for per-key values, GroupCell for per-group scalars) registered
// in Open. At a checkpoint barrier the runtime takes a copy-on-write
// Capture — flag flips and scalar copies, no serialization — and encodes
// the view into group blobs on a separate goroutine while the operator
// keeps processing; a mutation that would touch captured data clones it
// first (the cell API's GetMut discipline). This is the "asynchronous
// phase" of asynchronous barrier snapshotting: the barrier path blocks only
// for the capture, and the checkpoint completes when every subtask's
// serialization lands.
//
// # Backends
//
// A Backend persists completed snapshots — a consistent bundle of
// per-subtask blobs (sources, non-keyed operator state) and per-key-group
// blobs (keyed state) — either in memory (tests, benches) or on disk (gob
// files), and serves the most recent readable one for recovery.
package state

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// SubtaskKey identifies one operator subtask's state within a snapshot —
// used for state that is physically tied to a subtask (source positions,
// unkeyed operator scalars) and therefore cannot be redistributed.
type SubtaskKey struct {
	OperatorID int
	Subtask    int
}

// String renders the key as "op/subtask".
func (k SubtaskKey) String() string { return fmt.Sprintf("%d/%d", k.OperatorID, k.Subtask) }

// GroupKey identifies one operator's key group within a snapshot — the unit
// of rescalable keyed state.
type GroupKey struct {
	OperatorID int
	KeyGroup   int
}

// String renders the key as "op@group".
func (k GroupKey) String() string { return fmt.Sprintf("%d@%d", k.OperatorID, k.KeyGroup) }

// Snapshot is a completed checkpoint: every subtask's non-keyed state blob
// plus every keyed operator's per-key-group blobs.
type Snapshot struct {
	CheckpointID int64
	// NumKeyGroups records the plan constant the Groups entries were
	// written under; a restoring job must be built with the same value.
	NumKeyGroups int
	Entries      map[SubtaskKey][]byte
	Groups       map[GroupKey][]byte
}

// NewSnapshot returns an empty snapshot for the given checkpoint id.
func NewSnapshot(id int64) *Snapshot {
	return &Snapshot{
		CheckpointID: id,
		Entries:      make(map[SubtaskKey][]byte),
		Groups:       make(map[GroupKey][]byte),
	}
}

// Put stores one subtask's non-keyed state blob.
func (s *Snapshot) Put(k SubtaskKey, blob []byte) { s.Entries[k] = blob }

// Get returns one subtask's non-keyed state blob, or nil if absent.
func (s *Snapshot) Get(k SubtaskKey) []byte { return s.Entries[k] }

// EntriesOf collects one operator's per-subtask blobs keyed by subtask index
// — the restore path of sources whose state redistributes across a different
// parallelism (splittable scans) and therefore needs every subtask's blob.
func (s *Snapshot) EntriesOf(operatorID int) map[int][]byte {
	var out map[int][]byte
	for k, b := range s.Entries {
		if k.OperatorID != operatorID {
			continue
		}
		if out == nil {
			out = make(map[int][]byte)
		}
		out[k.Subtask] = b
	}
	return out
}

// PutGroup stores one key group's state blob.
func (s *Snapshot) PutGroup(k GroupKey, blob []byte) {
	if s.Groups == nil {
		s.Groups = make(map[GroupKey][]byte)
	}
	s.Groups[k] = blob
}

// GetGroup returns one key group's state blob, or nil if absent.
func (s *Snapshot) GetGroup(k GroupKey) []byte { return s.Groups[k] }

// GroupsOf collects an operator's blobs for the key-group range [start, end)
// — the restore path's redistribution: the ranges are the *new* job's, the
// blobs whatever subtasks wrote them. Returns nil when the range holds no
// state.
func (s *Snapshot) GroupsOf(operatorID, start, end int) map[int][]byte {
	var out map[int][]byte
	for g := start; g < end; g++ {
		if blob := s.Groups[GroupKey{OperatorID: operatorID, KeyGroup: g}]; blob != nil {
			if out == nil {
				out = make(map[int][]byte)
			}
			out[g] = blob
		}
	}
	return out
}

// Backend persists completed snapshots and serves the latest one for
// recovery.
type Backend interface {
	// Persist durably stores a completed snapshot. Later snapshots must
	// have larger checkpoint ids.
	Persist(snap *Snapshot) error
	// Latest returns the most recent *readable* persisted snapshot, or
	// ok=false if none exists. A durable backend that finds corrupt
	// snapshot data skips backward to the newest readable snapshot and
	// surfaces the corruption through err — possibly alongside ok=true, so
	// recovery can proceed from an older checkpoint while the operator
	// learns state was lost.
	Latest() (snap *Snapshot, ok bool, err error)
	// Load returns the snapshot with the given checkpoint id.
	Load(checkpointID int64) (*Snapshot, error)
}

// MemoryBackend keeps snapshots in memory; safe for concurrent use.
type MemoryBackend struct {
	mu    sync.Mutex
	snaps map[int64]*Snapshot
	ids   []int64
	// Retain limits how many snapshots are kept (0 = unlimited).
	Retain int
}

// NewMemoryBackend returns an empty in-memory backend retaining the last
// `retain` snapshots (0 = all).
func NewMemoryBackend(retain int) *MemoryBackend {
	return &MemoryBackend{snaps: make(map[int64]*Snapshot), Retain: retain}
}

// Persist implements Backend.
func (m *MemoryBackend) Persist(snap *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.snaps[snap.CheckpointID]; dup {
		return fmt.Errorf("state: checkpoint %d already persisted", snap.CheckpointID)
	}
	m.snaps[snap.CheckpointID] = snap
	m.ids = append(m.ids, snap.CheckpointID)
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	if m.Retain > 0 {
		for len(m.ids) > m.Retain {
			delete(m.snaps, m.ids[0])
			m.ids = m.ids[1:]
		}
	}
	return nil
}

// Latest implements Backend.
func (m *MemoryBackend) Latest() (*Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ids) == 0 {
		return nil, false, nil
	}
	return m.snaps[m.ids[len(m.ids)-1]], true, nil
}

// Load implements Backend.
func (m *MemoryBackend) Load(id int64) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[id]
	if !ok {
		return nil, fmt.Errorf("state: checkpoint %d not found", id)
	}
	return s, nil
}

// FileBackend persists each snapshot as a gob file in a directory.
type FileBackend struct {
	dir string
	mu  sync.Mutex
}

// NewFileBackend returns a backend writing to dir, creating it if needed.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: create dir: %w", err)
	}
	return &FileBackend{dir: dir}, nil
}

type fileSnapshot struct {
	CheckpointID int64
	NumKeyGroups int
	Keys         []SubtaskKey
	Blobs        [][]byte
	GroupKeys    []GroupKey
	GroupBlobs   [][]byte
}

func (f *FileBackend) path(id int64) string {
	return filepath.Join(f.dir, fmt.Sprintf("chk-%012d.gob", id))
}

// Persist implements Backend.
func (f *FileBackend) Persist(snap *Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := fileSnapshot{CheckpointID: snap.CheckpointID, NumKeyGroups: snap.NumKeyGroups}
	for k, b := range snap.Entries {
		fs.Keys = append(fs.Keys, k)
		fs.Blobs = append(fs.Blobs, b)
	}
	for k, b := range snap.Groups {
		fs.GroupKeys = append(fs.GroupKeys, k)
		fs.GroupBlobs = append(fs.GroupBlobs, b)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fs); err != nil {
		return fmt.Errorf("state: encode checkpoint %d: %w", snap.CheckpointID, err)
	}
	tmp := f.path(snap.CheckpointID) + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.path(snap.CheckpointID))
}

// Latest implements Backend: it walks the snapshot files newest-first and
// returns the first one that reads and decodes cleanly. Corrupt newer files
// are skipped — recovery falls back to the most recent *readable*
// checkpoint instead of silently restarting from scratch — and the
// corruption is surfaced through the error alongside the result.
func (f *FileBackend) Latest() (*Snapshot, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	matches, err := filepath.Glob(filepath.Join(f.dir, "chk-*.gob"))
	if err != nil || len(matches) == 0 {
		return nil, false, err
	}
	sort.Strings(matches)
	var corrupt []error
	for i := len(matches) - 1; i >= 0; i-- {
		snap, err := f.read(matches[i])
		if err != nil {
			corrupt = append(corrupt, err)
			continue
		}
		return snap, true, errors.Join(corrupt...)
	}
	return nil, false, fmt.Errorf("state: no readable snapshot in %s: %w", f.dir, errors.Join(corrupt...))
}

// Load implements Backend.
func (f *FileBackend) Load(id int64) (*Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.read(f.path(id))
}

func (f *FileBackend) read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("state: read %s: %w", path, err)
	}
	var fs fileSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&fs); err != nil {
		return nil, fmt.Errorf("state: decode %s: %w", path, err)
	}
	if len(fs.Blobs) != len(fs.Keys) || len(fs.GroupBlobs) != len(fs.GroupKeys) {
		return nil, fmt.Errorf("state: decode %s: %d keys for %d blobs, %d group keys for %d group blobs",
			path, len(fs.Keys), len(fs.Blobs), len(fs.GroupKeys), len(fs.GroupBlobs))
	}
	snap := NewSnapshot(fs.CheckpointID)
	snap.NumKeyGroups = fs.NumKeyGroups
	for i, k := range fs.Keys {
		snap.Put(k, fs.Blobs[i])
	}
	for i, k := range fs.GroupKeys {
		snap.PutGroup(k, fs.GroupBlobs[i])
	}
	return snap, nil
}
