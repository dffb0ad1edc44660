package partition_test

import (
	"slices"
	"testing"

	"looppart"
	"looppart/internal/partition"
)

// TestFamiliesRegistered pins the registry contents and its agreement
// with the looppart.Strategy enum: every strategy but Auto resolves to a
// registered family under its String name, and every family name parses
// back to a strategy.
func TestFamiliesRegistered(t *testing.T) {
	want := []string{"abraham-hudak", "blocks", "columns", "comm-free", "lowerbound", "oblivious", "rect", "rows", "skewed"}
	if got := partition.Families(); !slices.Equal(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for s := looppart.Auto + 1; s.String() != "unknown"; s++ {
		if f, ok := partition.Lookup(s.String()); !ok || f.Name() != s.String() {
			t.Errorf("strategy %d (%s) has no registered family", int(s), s)
		}
	}
	for _, name := range partition.Families() {
		if s, ok := looppart.ParseStrategy(name); !ok || s == looppart.Auto {
			t.Errorf("family %q does not parse as a strategy", name)
		}
	}
}
