package dataflow

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// patternSource is a BatchSource over repeating [d, d, wm, d] patterns. A
// NextBatch call returns at most max records and never crosses a pattern
// boundary, so at a batch size of 4 or more every batch is one whole
// pattern. After the calls listed in trigger it queues a checkpoint trigger
// on the runtime's control channel, which runSource must turn into a barrier
// between that batch and the next. Snapshot reports the data records handed
// out so far.
type patternSource struct {
	patterns int
	trigger  map[int]int64 // call number (1-based) -> checkpoint id
	control  chan int64

	pos     int // records handed out
	data    int // data records among them
	calls   int
	batches [][]Record // every non-empty batch returned, in order
}

func (p *patternSource) at(i int) Record {
	switch i % 4 {
	case 2:
		return Watermark(int64(i))
	default:
		return Data(int64(i), uint64(i), float64(i))
	}
}

func (p *patternSource) NextBatch(dst []Record, max int) []Record {
	p.calls++
	start := len(dst)
	for n := 0; n < max && p.pos < 4*p.patterns; n++ {
		r := p.at(p.pos)
		dst = append(dst, r)
		p.pos++
		if r.Kind == KindData {
			p.data++
		}
		if p.pos%4 == 0 {
			break
		}
	}
	if len(dst) > start {
		p.batches = append(p.batches, append([]Record(nil), dst[start:]...))
	}
	if id, ok := p.trigger[p.calls]; ok {
		p.control <- id
	}
	return dst
}

func (p *patternSource) Next() (Record, bool) {
	panic("runSource must read a BatchSource through NextBatch")
}

func (p *patternSource) Snapshot() ([]byte, error) { return []byte(fmt.Sprint(p.data)), nil }
func (p *patternSource) Restore([]byte) error      { return nil }

// recorderOp forwards everything and logs what the chain hands it: data
// runs (one entry per OnBatch call or per OnRecord call), watermarks, and
// the data count at each snapshot.
type recorderOp struct {
	Base
	log       []string
	seen      int
	onRecord  int
	onBatch   int
	snapshots []int
}

func (o *recorderOp) OnRecord(r Record, out Collector) {
	o.onRecord++
	o.seen++
	o.log = append(o.log, "run1")
	out.Collect(r)
}

func (o *recorderOp) OnBatch(b []Record, _ Collector) []Record {
	o.onBatch++
	o.seen += len(b)
	o.log = append(o.log, fmt.Sprintf("run%d", len(b)))
	return b
}

func (o *recorderOp) OnWatermark(wm int64, _ Collector) {
	o.log = append(o.log, fmt.Sprintf("wm%d", wm))
}

func (o *recorderOp) Snapshot() ([]byte, error) {
	o.snapshots = append(o.snapshots, o.seen)
	return nil, nil
}

// runPatternSource drives runSource over a patternSource into one forward
// channel and returns everything shipped downstream.
func runPatternSource(t *testing.T, batchSize int, vectorize bool, src *patternSource, op *recorderOp, reg *metrics.Registry) []Record {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := &runtime{ctx: ctx, cancel: cancel, ackCh: make(chan ackMsg, 64)}
	down := make(chan []Record, 4*src.patterns+16)
	ch := &chain{
		out: &outputs{ctx: ctx, pool: newBatchPool(batchSize), batchSize: batchSize, flushEvery: -1,
			numGroups: 8, vecRoute: vectorize,
			edges: []outEdge{{part: Forward, chans: []chan []Record{down}, stage: make([][]Record, 1)}}},
		nodes:     []*Node{{ID: 2, Name: "rec"}},
		ops:       []Operator{op},
		vectorize: vectorize,
		vecKeyed:  vectorize,
	}
	ch.build()
	nm := &nodeMetrics{recordsIn: reg.Counter("node.src.records_in"), watermark: reg.Gauge("node.src.watermark")}
	if err := runSource(rt, &Node{ID: 1, Name: "src"}, 0, src, ch, src.control, nm); err != nil {
		t.Fatalf("runSource: %v", err)
	}
	close(down)
	var got []Record
	for b := range down {
		got = append(got, b...)
	}
	return got
}

// The batched source loop must ship exactly what a record-at-a-time loop
// ships — data in order, each watermark after the data before it, a barrier
// only between two source batches and covering every record of the batches
// before it — at any batch size, with the vectorized chain on or off.
func TestRunSourceBatchesKeepOrderAndBarrierPositions(t *testing.T) {
	const patterns = 9
	trigger := map[int]int64{2: 1, 5: 2}
	for _, batchSize := range []int{1, 2, 64} {
		for _, vectorize := range []bool{true, false} {
			t.Run(fmt.Sprintf("batch%d/vectorized=%v", batchSize, vectorize), func(t *testing.T) {
				src := &patternSource{patterns: patterns, trigger: trigger, control: make(chan int64, 4)}
				op := &recorderOp{}
				reg := metrics.NewRegistry()
				got := runPatternSource(t, batchSize, vectorize, src, op, reg)

				// Expected downstream stream: every batch's records in order, the
				// barrier of a triggering call right behind that call's batch,
				// then the runtime's +inf watermark and end marker.
				var want []Record
				var wantLog []string
				var wantSnaps []int
				data := 0
				for i, b := range src.batches {
					run := 0
					flush := func() {
						if run == 0 {
							return
						}
						if vectorize {
							wantLog = append(wantLog, fmt.Sprintf("run%d", run))
						} else {
							for k := 0; k < run; k++ {
								wantLog = append(wantLog, "run1")
							}
						}
						run = 0
					}
					for _, r := range b {
						want = append(want, r)
						if r.Kind == KindData {
							run++
							data++
							continue
						}
						flush()
						wantLog = append(wantLog, fmt.Sprintf("wm%d", r.Ts))
					}
					flush()
					if id, ok := trigger[i+1]; ok {
						want = append(want, Barrier(id))
						wantSnaps = append(wantSnaps, data)
					}
				}
				want = append(want, Watermark(math.MaxInt64), End())
				wantLog = append(wantLog, fmt.Sprintf("wm%d", int64(math.MaxInt64)))

				if len(src.batches) != src.calls-1 {
					t.Fatalf("%d non-empty batches in %d calls: the loop must stop at the first empty batch", len(src.batches), src.calls)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("downstream stream\n got %v\nwant %v", got, want)
				}
				if !reflect.DeepEqual(op.log, wantLog) {
					t.Fatalf("chain calls\n got %v\nwant %v", op.log, wantLog)
				}
				if !reflect.DeepEqual(op.snapshots, wantSnaps) {
					t.Fatalf("chain snapshots saw %v data records, want %v (barriers only between batches)", op.snapshots, wantSnaps)
				}
				if vectorize && op.onRecord != 0 || !vectorize && op.onBatch != 0 {
					t.Fatalf("vectorized=%v: %d OnRecord and %d OnBatch calls", vectorize, op.onRecord, op.onBatch)
				}
				if n := reg.Counter("node.src.records_in").Value(); n != int64(src.data) {
					t.Fatalf("records_in = %d, want %d", n, src.data)
				}
				if wm := reg.Gauge("node.src.watermark").Value(); wm != int64(4*patterns-2) {
					t.Fatalf("watermark gauge = %d, want %d", wm, 4*patterns-2)
				}
			})
		}
	}
}
