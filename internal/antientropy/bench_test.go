package antientropy_test

import (
	"testing"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/store"
)

// BenchmarkAntiEntropyRound is one repair round between two mates on the
// log engine, the initiator holding 50 000 headers, opened with range
// fingerprints (ranged) or with a list of all local headers (WholeStore,
// the full-header reference): the responder converged with it, 16
// objects short, or cold. digest_B/round is what the round charged to
// flasks_antientropy_digest_bytes_total; msgs/round and walks/round
// count messages sent and ForEachIn calls on both sides. A converged
// ranged round is one message and no walk, or the benchmark fails.
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
		}{{"ranged", antientropy.Config{}}, {"WholeStore", antientropy.Config{WholeStore: true}}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				p := newPairOn(mode.cfg, mode.cfg, slice, k, openLog(b, keys), openLog(b, tc.keys))
				msgs := 0
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
					msgs += len(p.log)
					p.log = nil
				}
				b.StopTimer()
				walks := p.sa.walks.Load() + p.sb.walks.Load()
				if tc.name == "converged" && mode.name == "ranged" && (walks != 0 || msgs != b.N) {
					b.Fatalf("%d converged ranged rounds sent %d messages and walked headers %d times, want one message each and no walk", b.N, msgs, walks)
				}
				b.ReportMetric(float64(p.digest)/float64(b.N), "digest_B/round")
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/round")
				b.ReportMetric(float64(walks)/float64(b.N), "walks/round")
			})
		}
	}
}
