package client

import (
	"reflect"
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// floodOf reads the Flood flag off any of the four request kinds.
func floodOf(msg interface{}) bool {
	return reflect.ValueOf(msg).Elem().FieldByName("Flood").Bool()
}

// TestFloodFlagFirstAttemptOptimisticRetriesEpidemic pins which
// requests ask the nodes for the epidemic fanout. Attempt 1 of a
// single-ack put, batch put or get leaves the directed hop open; every
// retry of anything floods; an op that needs more than one ack, every
// delete (a batch, of one item for a single delete) and an op told to
// (Opts.Flood) flood from the first attempt.
func TestFloodFlagFirstAttemptOptimisticRetriesEpidemic(t *testing.T) {
	objs := []store.Object{{Key: "k", Version: 1, Value: []byte("v")}}
	items := []core.DeleteItem{{Key: "k", Version: 1}, {Key: "k2", Version: 1}}
	single := []core.DeleteItem{{Key: "k", Version: 1}}
	cases := []struct {
		name       string
		start      func(cl *Core, opts Opts)
		opts       Opts
		firstFlood bool
	}{
		{"put", func(cl *Core, o Opts) { cl.StartPutOpts("k", 1, nil, o, nil) }, Opts{}, false},
		{"get", func(cl *Core, o Opts) { cl.StartGetOpts("k", store.Latest, o, nil) }, Opts{}, false},
		{"putbatch", func(cl *Core, o Opts) { cl.StartPutBatch(objs, o, nil) }, Opts{}, false},
		{"put acks=2", func(cl *Core, o Opts) { cl.StartPutOpts("k", 1, nil, o, nil) }, Opts{Acks: 2}, true},
		{"putbatch acks=2", func(cl *Core, o Opts) { cl.StartPutBatch(objs, o, nil) }, Opts{Acks: 2}, true},
		{"delete", func(cl *Core, o Opts) { cl.StartDeleteBatch(single, o, nil) }, Opts{}, true},
		{"deletebatch", func(cl *Core, o Opts) { cl.StartDeleteBatch(items, o, nil) }, Opts{}, true},
		{"fire-and-forget delete", func(cl *Core, o Opts) { cl.StartDeleteBatch(single, o, nil) }, Opts{Acks: -1}, true},
		{"put forced", func(cl *Core, o Opts) { cl.StartPutOpts("k", 1, nil, o, nil) }, Opts{Flood: true}, true},
		{"get forced", func(cl *Core, o Opts) { cl.StartGetOpts("k", store.Latest, o, nil) }, Opts{Flood: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, cap := newTestCore(t, Config{TimeoutTicks: 1, Retries: 2}, []transport.NodeID{1, 2, 3})
			tc.start(cl, tc.opts)
			if len(cap.sent) != 1 {
				t.Fatalf("attempt 1 sent %d messages", len(cap.sent))
			}
			if got := floodOf(cap.sent[0].Msg); got != tc.firstFlood {
				t.Errorf("attempt 1 Flood = %v, want %v", got, tc.firstFlood)
			}
			if tc.opts.Acks < 0 {
				return // completed at once; nothing to retry
			}
			for attempt := 2; attempt <= 3; attempt++ {
				cl.Tick()
				if len(cap.sent) != attempt {
					t.Fatalf("after %d timeouts: %d messages sent", attempt-1, len(cap.sent))
				}
				if !floodOf(cap.sent[attempt-1].Msg) {
					t.Errorf("attempt %d does not ask for the flood", attempt)
				}
			}
		})
	}
}

// TestConfigPutAcksAboveOneFloods: the config-level ack requirement
// counts like the per-op one.
func TestConfigPutAcksAboveOneFloods(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 3}, []transport.NodeID{1})
	cl.StartPutOpts("k", 1, nil, Opts{}, nil)
	cl.StartGetOpts("k", store.Latest, Opts{}, nil)
	if !floodOf(cap.sent[0].Msg) {
		t.Error("PutAcks 3: the put's first attempt did not ask for the flood")
	}
	if floodOf(cap.sent[1].Msg) {
		t.Error("PutAcks 3 made a get flood; reads complete on the first reply")
	}
}
