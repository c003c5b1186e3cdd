package metric

import (
	gort "runtime"
	"sync"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("requests")
	if c2 := r.Counter("requests"); c2 != c {
		t.Fatal("same name returned a different counter")
	}
	c.Inc(1)
	c.Inc(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	const goroutines, each = 16, 10_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Errorf("Value = %d, want %d: striped increments lost updates", got, goroutines*each)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := New()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestTimerSinceUsesRegistryClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	r := New(WithClock(fake))
	tm := r.Timer("lat")
	start := fake.Now()
	fake.Advance(250 * time.Millisecond)
	tm.Since(start)
	if got, want := tm.Max(), 250*time.Millisecond; !within(got, want, 0.04) {
		t.Errorf("Max = %v, want ≈ %v", got, want)
	}
	if tm.Count() != 1 {
		t.Errorf("Count = %d, want 1", tm.Count())
	}
}

func TestUptime(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	r := New(WithClock(fake))
	fake.Advance(90 * time.Second)
	if got := r.Uptime(); got != 90*time.Second {
		t.Errorf("Uptime = %v, want 90s", got)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	fake := clock.NewFake(time.Unix(50, 0))
	r := New(WithClock(fake), WithCounterStripes(1))
	r.Counter("b.count").Inc(2)
	r.Counter("a.count").Inc(1)
	r.Gauge("g").Set(-3)
	r.Timer("t").Observe(time.Millisecond)
	fake.Advance(10 * time.Second)

	snap := r.Snapshot()
	if snap.UptimeSeconds != 10 {
		t.Errorf("UptimeSeconds = %v, want 10", snap.UptimeSeconds)
	}
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a.count" || snap.Counters[1].Name != "b.count" {
		t.Fatalf("counters not sorted/complete: %+v", snap.Counters)
	}
	if p, ok := snap.Gauge("g"); !ok || p.Value != -3 {
		t.Errorf("gauge point = %+v ok=%v, want -3", p, ok)
	}
	tp, ok := snap.Timer("t")
	if !ok || tp.Count != 1 {
		t.Fatalf("timer point = %+v ok=%v", tp, ok)
	}
	if !within(time.Duration(tp.P50Ns), time.Millisecond, 0.04) {
		t.Errorf("P50 = %v, want ≈ 1ms", time.Duration(tp.P50Ns))
	}
}

// Zero-alloc guards: the hot-path operations must never allocate — they
// run inside score-pool workers and the serving read path.

func TestCounterIncZeroAlloc(t *testing.T) {
	c := New().Counter("hot")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(1) }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op, want 0", allocs)
	}
}

func TestGaugeSetZeroAlloc(t *testing.T) {
	g := New().Gauge("hot")
	if allocs := testing.AllocsPerRun(1000, func() { g.Set(5) }); allocs != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op, want 0", allocs)
	}
}

func TestTimerObserveZeroAlloc(t *testing.T) {
	tm := New().Timer("hot")
	if allocs := testing.AllocsPerRun(1000, func() { tm.Observe(137 * time.Microsecond) }); allocs != 0 {
		t.Errorf("Timer.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestTimerSinceZeroAlloc(t *testing.T) {
	r := New()
	tm := r.Timer("hot")
	start := r.Clock().Now()
	if allocs := testing.AllocsPerRun(1000, func() { tm.Since(start) }); allocs != 0 {
		t.Errorf("Timer.Since allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkCounterContended hammers one counter from GOMAXPROCS
// goroutines — the contention profile of z spotlight instances or serve
// handlers bumping one shared counter. Striping should keep this near the
// uncontended single-atomic cost.
func BenchmarkCounterContended(b *testing.B) {
	c := New().Counter("contended")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc(1)
		}
	})
	if got, want := c.Value(), int64(b.N); got != want {
		b.Fatalf("Value = %d, want %d", got, want)
	}
}

// BenchmarkCounterSingle is the uncontended reference point.
func BenchmarkCounterSingle(b *testing.B) {
	c := New().Counter("single")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(1)
	}
}

// BenchmarkTimerContended hammers one timer from GOMAXPROCS goroutines —
// the per-request latency histogram under serving load.
func BenchmarkTimerContended(b *testing.B) {
	tm := New().Timer("contended")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			tm.Observe(d)
			d += time.Microsecond
		}
	})
}

func TestStripeCountIsPowerOfTwo(t *testing.T) {
	for _, want := range []int{1, 2, 3, 5, 8, 64} {
		c := newCounter(want)
		n := len(c.stripes)
		if n&(n-1) != 0 || n < want {
			t.Errorf("newCounter(%d) made %d stripes, want power of two >= %d", want, n, want)
		}
	}
	if gort.GOMAXPROCS(0) > 0 && defaultStripes() < 1 {
		t.Error("defaultStripes < 1")
	}
}

// within reports |got-want| <= tol*want — histogram quantiles carry the
// log-bucket's bounded relative error.
func within(got, want time.Duration, tol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= tol*float64(want)
}
