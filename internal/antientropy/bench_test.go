package antientropy_test

import (
	"testing"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/store"
)

// BenchmarkAntiEntropyRound is one repair round between two mates on the
// log engine, the initiator holding 50 000 headers, opened with range
// sums (ranged) or the way every round used to open (WholeStore, a
// Summary of all local headers): the responder converged with it, 16
// objects short, or cold. digest_B/round is what the round charged to
// flasks_antientropy_digest_bytes_total; walks/round counts ForEachIn
// calls on both sides.
func BenchmarkAntiEntropyRound(b *testing.B) {
	const slice, k, headers = 1, 4, 50000
	keys := sliceKeys(slice, k, headers)
	openLog := func(b *testing.B, keys []string) *store.Log {
		b.Helper()
		lg, err := store.OpenLog(b.TempDir(), store.LogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { lg.Close() })
		load(b, keys, lg)
		return lg
	}
	short := make([]store.Deletion, 16)
	for i := range short {
		short[i] = store.Deletion{Key: keys[i*(headers/16)], Version: 1}
	}
	cases := []struct {
		name string
		keys []string            // what the responder starts with
		undo func(p *pair) error // restores the case's difference after a round repaired some of it
	}{
		{"converged", keys, nil},
		{"16differing", keys, func(p *pair) error { _, err := p.sb.Store.DeleteBatch(short); return err }},
		{"cold", nil, func(p *pair) error { p.sb.Store = store.NewMemory(); return nil }},
	}
	for _, tc := range cases {
		for _, mode := range []struct {
			name string
			cfg  antientropy.Config
		}{{"ranged", antientropy.Config{FullEvery: -1}}, {"WholeStore", antientropy.Config{FullEvery: -1, WholeStore: true}}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				p := newPairOn(mode.cfg, mode.cfg, slice, k, openLog(b, keys), openLog(b, tc.keys))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if tc.undo != nil {
						b.StopTimer()
						if err := tc.undo(p); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					p.round(p.a)
					p.log = nil
				}
				b.StopTimer()
				walks := p.sa.walks.Load() + p.sb.walks.Load()
				if tc.name == "converged" && mode.name == "ranged" && walks != 0 {
					b.Fatalf("converged ranged rounds walked headers %d times", walks)
				}
				b.ReportMetric(float64(p.digest)/float64(b.N), "digest_B/round")
				b.ReportMetric(float64(walks)/float64(b.N), "walks/round")
			})
		}
	}
}
