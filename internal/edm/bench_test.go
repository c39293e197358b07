package edm

import "testing"

// BenchmarkSchemaConcreteIn asks ConcreteIn for every type of a chain-1002
// schema with one five-level hierarchy. It is the lookup behind every
// theory fingerprint of the containment checker. The index is built before
// the timer starts, so an op measures lookups only.
func BenchmarkSchemaConcreteIn(b *testing.B) {
	s := chainSchema(b, 1002)
	names := s.SortedTypeNames()
	for _, n := range names {
		s.ConcreteIn(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			total += len(s.ConcreteIn(n))
		}
	}
	if total == 0 {
		b.Fatal("no concrete types")
	}
}
