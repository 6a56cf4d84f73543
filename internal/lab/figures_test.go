package lab

import "testing"

// The headline experiments at flaskbench -quick's scale and seed, so
// TestGoldenTables pins the same run's table; the full sweeps run via
// cmd/flaskbench and the root benchmarks.

func TestFigure3ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	if rows := quick("fig3").Result.(FigureResult).Rows; len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	holdQuick(t, "fig3")
}

func TestFigure4ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	holdQuick(t, "fig4") // k = 5, 10, 15
}
