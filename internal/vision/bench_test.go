package vision_test

import (
	"testing"

	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// The visibility-pair microbenchmark lives next to the package it measures
// (it used to hide under BenchmarkGeometryPrimitives in the repo root).
// Sub-benchmark names use the "n=128" form: scripts/bench-snapshot.sh strips
// a trailing "-<digits>" GOMAXPROCS suffix, which would also eat a bare
// "-128".

func BenchmarkVisibilityPair(b *testing.B) {
	pts := workload.Ring(128, 300)
	// "fresh" names the one-shot pair query; the name is kept so the
	// committed BENCH_*.json trajectory stays comparable.
	b.Run("fresh/n=128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = vision.Default.Visible(pts, 0, 64)
		}
	})
}
