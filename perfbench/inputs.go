package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/seglog"
	"repro/streamline"
)

// Inputs are a pure function of the seed. Each generator is one pass over a
// seeded stream of Zipf draws; the same pass feeds the reference oracle, so
// the oracle never reads what the program wrote. Files are cached per seed
// under <workdir>/inputs/seed-<n>/ and written through a temporary name, so
// a cut run never leaves a half-written input behind.

// keepSeeds is how many seeds' cached inputs stay on disk, the current one
// included; older ones are removed, so runs over many seeds do not fill the
// disk.
const keepSeeds = 4

// useInputDir marks the current seed's cache as the most recently used and
// removes the caches of all but the keepSeeds-1 seeds used most recently
// before it.
func useInputDir(cfg config) error {
	if err := os.MkdirAll(cfg.inputDir(), 0o755); err != nil {
		return err
	}
	now := time.Now()
	if err := os.Chtimes(cfg.inputDir(), now, now); err != nil {
		return err
	}
	root := filepath.Dir(cfg.inputDir())
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	type cached struct {
		path string
		used time.Time
	}
	var others []cached
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		info, err := e.Info()
		if err != nil || !e.IsDir() || path == cfg.inputDir() {
			continue
		}
		others = append(others, cached{path, info.ModTime()})
	}
	sort.Slice(others, func(i, j int) bool { return others[i].used.After(others[j].used) })
	for _, c := range others[min(len(others), keepSeeds-1):] {
		if err := os.RemoveAll(c.path); err != nil {
			return err
		}
	}
	return nil
}

// zipfS is the skew of every key distribution (s > 1 as math/rand needs):
// a few hot keys, a long tail.
const zipfS = 1.1

func newZipf(seed, stream int64, n uint64) *rand.Zipf {
	r := rand.New(rand.NewSource(seed*1_000_003 + stream))
	return rand.NewZipf(r, zipfS, 1, n-1)
}

// word spells vocabulary rank i as consonant-vowel syllables (at least two),
// so words look like text and have varied lengths.
func word(i int) string {
	const cons, vows = "bcdfghjklmnpqrstvwxyz", "aeiou"
	var b []byte
	n := i
	for k := 0; k < 2 || n > 0; k++ {
		syl := n % (len(cons) * len(vows))
		n /= len(cons) * len(vows)
		b = append(b, cons[syl/len(vows)], vows[syl%len(vows)])
	}
	return string(b)
}

// ---- atrest-wordcount --------------------------------------------------------

const (
	atRestLines  = 800_000
	atRestVocab  = 20_000
	wordsPerLine = 8
)

// atRestLine is one JSONL document of the word-count input.
type atRestLine struct {
	Text string `json:"text"`
}

// atRestInput writes (or finds cached) the seeded JSONL file and returns its
// path and the reference word counts, keyed the way KeyByString keys them.
func atRestInput(cfg config) (string, map[uint64]float64, error) {
	vocab := make([]string, atRestVocab)
	for i := range vocab {
		vocab[i] = word(i)
	}
	path := filepath.Join(cfg.inputDir(), "atrest.jsonl")
	_, statErr := os.Stat(path)
	var w *bufio.Writer
	var f *os.File
	if statErr != nil {
		if err := os.MkdirAll(cfg.inputDir(), 0o755); err != nil {
			return "", nil, err
		}
		var err error
		if f, err = os.Create(path + ".tmp"); err != nil {
			return "", nil, err
		}
		defer f.Close()
		w = bufio.NewWriterSize(f, 1<<20)
	}
	counts := make([]int, atRestVocab)
	z := newZipf(cfg.seed, 1, atRestVocab)
	var sb strings.Builder
	for l := 0; l < atRestLines; l++ {
		sb.Reset()
		sb.WriteString(`{"text":"`)
		for k := 0; k < wordsPerLine; k++ {
			r := z.Uint64()
			counts[r]++
			wd := vocab[r]
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(wd)
		}
		sb.WriteString("\"}\n")
		if w != nil {
			if _, err := w.WriteString(sb.String()); err != nil {
				return "", nil, err
			}
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return "", nil, err
		}
		if err := f.Close(); err != nil {
			return "", nil, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return "", nil, err
		}
	}
	want := make(map[uint64]float64, len(counts))
	for r, c := range counts {
		if c > 0 {
			want[streamline.KeyOf(vocab[r])] = float64(c)
		}
	}
	return path, want, nil
}

// emptyFile returns the path of an empty JSONL file (the set-up job's input).
func emptyFile(cfg config) (string, error) {
	path := filepath.Join(cfg.inputDir(), "empty.jsonl")
	if err := os.MkdirAll(cfg.inputDir(), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, nil, 0o644)
}

// ---- replay-tcp ----------------------------------------------------------------

const (
	replayRecords = 3_000_000
	replayKeys    = 10_000
	// replayMaxValue bounds the integer-valued payloads, so every sum is
	// exact in float64 whatever order the reduce adds in.
	replayMaxValue = 1000
)

// Topic names in the replay store: the seeded history, and an empty topic
// for the set-up job.
const (
	historyTopic = "history"
	emptyTopic   = "empty"
)

// replayInput writes (or finds cached) the seeded topic store and returns
// its directory and the reference per-key sums.
func replayInput(cfg config) (string, map[uint64]float64, error) {
	dir := filepath.Join(cfg.inputDir(), "replay-store")
	_, statErr := os.Stat(dir)
	write := statErr != nil
	var tmp string
	var store *streamline.TopicStore
	if write {
		tmp = dir + ".tmp"
		if err := os.RemoveAll(tmp); err != nil {
			return "", nil, err
		}
		var err error
		if store, err = streamline.OpenTopicStore(tmp); err != nil {
			return "", nil, err
		}
		defer store.Close()
	}
	want := make(map[uint64]float64, replayKeys)
	z := newZipf(cfg.seed, 2, replayKeys)
	vals := rand.New(rand.NewSource(cfg.seed*1_000_003 + 3))
	var hist *seglog.Topic
	if write {
		var err error
		if hist, err = store.Store().Topic(historyTopic); err != nil {
			return "", nil, err
		}
		if _, err := store.Store().Topic(emptyTopic); err != nil {
			return "", nil, err
		}
	}
	var buf []byte
	for i := 0; i < replayRecords; i++ {
		key := z.Uint64()
		v := float64(1 + vals.Intn(replayMaxValue))
		want[key] += v
		if write {
			buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
			if _, err := hist.Append(int64(i), key, buf); err != nil {
				return "", nil, err
			}
		}
	}
	if write {
		if err := store.Close(); err != nil {
			return "", nil, fmt.Errorf("close replay store: %w", err)
		}
		if err := os.Rename(tmp, dir); err != nil {
			return "", nil, err
		}
	}
	return dir, want, nil
}

// ---- inmotion-windows ----------------------------------------------------------

const (
	inMotionRate    = 50_000 // events per second
	inMotionTick    = 1      // ms between generator ticks
	eventsPerTick   = inMotionRate / 1000 * inMotionTick
	inMotionKeys    = 1000
	inMotionMaxVal  = 10
	tumblingSize    = 100
	slidingSize     = 2000
	slidingSlide    = 100
	checkpointEvery = 1000 // ms
)

// motionEvents is the seeded event sequence of one open-loop run: tick i
// sends events [i*eventsPerTick, (i+1)*eventsPerTick) stamped Ts = i ms.
type motionEvents struct {
	keys []uint16
	vals []uint8
}

func inMotionInput(seed int64, ticks int) motionEvents {
	n := ticks * eventsPerTick
	ev := motionEvents{keys: make([]uint16, n), vals: make([]uint8, n)}
	z := newZipf(seed, 4, inMotionKeys)
	vals := rand.New(rand.NewSource(seed*1_000_003 + 5))
	for i := 0; i < n; i++ {
		ev.keys[i] = uint16(z.Uint64())
		ev.vals[i] = uint8(1 + vals.Intn(inMotionMaxVal))
	}
	return ev
}
