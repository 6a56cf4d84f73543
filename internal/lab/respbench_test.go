package lab

import (
	"testing"
	"time"
)

// TestRESPComparisonSmoke holds a miniature E16 to the experiment's
// gate: the pipelined RESP driver must complete the workload with next
// to no errors and beat the blocking baseline 5x. Real-time latency
// emulation makes it a slow test.
func TestRESPComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time LAN emulation; skipped in -short")
	}
	rows, err := RESPComparison(16, 2, 60, 20*time.Millisecond, 42)
	if err != nil {
		t.Fatalf("RESPComparison: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	hold(t, RESPGate(rows))
}
