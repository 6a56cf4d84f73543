package transport_test

import (
	"os"
	"testing"

	"dataflasks/internal/leakcheck"
)

// TestMain fails the package if any goroutine outlives the tests:
// the transport owns accept loops and per-connection readers, so a
// leak here means a Close path lost a goroutine.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
