package dataflasks

import (
	"context"
	"math/rand/v2"

	"dataflasks/internal/bootstrap"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// SnapshotResult summarizes a completed snapshot download.
type SnapshotResult struct {
	// Segments is how many sealed segments the snapshot holds.
	Segments int
	// Bytes is the total segment payload downloaded and verified.
	Bytes int64
}

// DownloadSnapshot pulls one running node's sealed segments into dir as
// a crash-consistent, restorable snapshot (`flaskctl snapshot`) without
// stopping the node. seed is an "id@host:port" contact; every chunk and
// every completed segment is CRC-verified against the node's manifest,
// and the manifest file is written last, so an interrupted download
// leaves no usable snapshot. The result restores via
// NodeConfig.RestoreDir (flasksd -restore).
//
// onProgress, when non-nil, observes verified bytes per segment as they
// land.
func DownloadSnapshot(ctx context.Context, seed, dir string, onProgress func(segment uint64, bytes int64)) (SnapshotResult, error) {
	var res SnapshotResult
	sid, addr, err := ParseSeed(seed)
	if err != nil {
		return res, err
	}
	id := clientIDBase + NodeID(rand.Uint32N(1<<24))
	mailbox := make(chan transport.Envelope, defaultMailbox)
	handler := func(env transport.Envelope) {
		select {
		case mailbox <- env:
		default:
			// Overflow drops are safe: the download protocol re-fetches
			// at its verified offset on any gap.
		}
	}
	tcpNet, err := transport.ListenTCP(id, "127.0.0.1:0", "", transport.TCPConfig{Codec: wire.BinaryCodec()}, handler)
	if err != nil {
		return res, err
	}
	defer tcpNet.Close()
	tcpNet.Learn(sid, addr)

	man, err := bootstrap.Download(ctx, tcpNet.Sender(), sid, mailbox, dir, bootstrap.DownloadOptions{
		OnProgress: onProgress,
	})
	if err != nil {
		return res, err
	}
	res.Segments = len(man.Segments)
	for _, s := range man.Segments {
		res.Bytes += s.Bytes
	}
	return res, nil
}
