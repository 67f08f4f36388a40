package workload_test

import (
	"testing"

	"pgss/internal/program"
	"pgss/internal/workload"
)

var progSink *program.Program

// BenchmarkBuild measures building a 20M-op program, which every recording
// and every PGSS-Live run does once. 181.mcf initialises most of its data
// segment and 168.wupwise leaves most of its segment zero.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"181.mcf", "168.wupwise"} {
		spec, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := spec.Build(20_000_000)
				if err != nil {
					b.Fatal(err)
				}
				progSink = p
			}
		})
	}
}
