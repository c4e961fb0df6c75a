package transport

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkWireGet is the crowd's guard: Gets over TCP against one
// served cluster from 2 and from 64 concurrent callers sharing one
// Conn, reporting how many frames each socket write carried. A writer
// that sends the frame it holds must still batch for a crowd (DESIGN.md
// §10): at 64 callers frames/syscall stays above 2.
func BenchmarkWireGet(b *testing.B) {
	for _, callers := range []int{2, 64} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			_, _, cl := newServedCluster(b, 0)
			ctx := context.Background()
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("bench-%d", i)
				if _, err := cl.Set(ctx, keys[i], []byte(`{"f":"0123456789abcdef"}`), 0); err != nil {
					b.Fatal(err)
				}
			}
			b.SetParallelism(max(1, callers/runtime.GOMAXPROCS(0)))
			before := mFramesPerSyscall.Snapshot()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			after := mFramesPerSyscall.Snapshot()
			b.ReportMetric(float64(after.Sum-before.Sum)/float64(after.Count-before.Count), "frames/syscall")
		})
	}
}
