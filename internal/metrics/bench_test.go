package metrics

import "testing"

// Hot-path microbenchmarks. Run with -benchmem: every update must report
// 0 B/op, 0 allocs/op — the registry's reason to exist is that leaving
// metrics on costs a bare atomic op. EXPERIMENTS.md §20 records the
// results.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSetMax(b *testing.B) {
	g := NewRegistry().Gauge("bench_hw")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.SetMax(int64(i & 1023))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_ns", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 997)
	}
}
