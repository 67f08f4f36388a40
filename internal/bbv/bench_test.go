package bbv

import "testing"

// BenchmarkTrackerUpdate measures the per-op tracker work on the retire
// stream: one RetireOps plus a TakenBranch every 8th op (a typical taken
// branch density).
func BenchmarkTrackerUpdate(b *testing.B) {
	tr := NewTracker(MustNewHash(DefaultHashBits, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RetireOps(1)
		if i&7 == 0 {
			tr.TakenBranch(uint64(i) << 2)
		}
	}
}

// BenchmarkNewHash measures building the default BBV hash and its index
// tables, which every suite and profile recording pays once.
func BenchmarkNewHash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewHash(DefaultHashBits, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTakeVector measures the allocating per-window readout.
func BenchmarkTakeVector(b *testing.B) {
	tr := NewTracker(MustNewHash(DefaultHashBits, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RetireOps(100)
		tr.TakenBranch(uint64(i) << 2)
		_ = tr.TakeVector()
	}
}

// BenchmarkTakeVectorInto measures the allocation-free readout used by the
// hot replay and shard loops.
func BenchmarkTakeVectorInto(b *testing.B) {
	h := MustNewHash(DefaultHashBits, 42)
	tr := NewTracker(h)
	dst := make(Vector, h.Buckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RetireOps(100)
		tr.TakenBranch(uint64(i) << 2)
		_ = tr.TakeVectorInto(dst)
	}
}

// BenchmarkVectorAngle measures the classification distance kernel.
func BenchmarkVectorAngle(b *testing.B) {
	v := make(Vector, 32)
	w := make(Vector, 32)
	for i := range v {
		v[i] = float64(i + 1)
		w[i] = float64(32 - i)
	}
	v.Normalize()
	w.Normalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Angle(w)
	}
}
