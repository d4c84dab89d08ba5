package server

import (
	"fmt"

	"streamhist"
	"streamhist/internal/shard"
)

// MaintainerFactory adapts the library's public construction API to the
// engine's per-key factory: every new stream gets the summary set of a
// maintainer built by streamhist.NewFixedWindow(n, b, eps, mopts...).
// Use it with WithFactory to give tenant streams library-configured
// windows (growth factor, incremental repair):
//
//	srv, err := server.New(0, 0, 0, 0,
//		server.WithFactory(server.MaintainerFactory(4096, 32, 0.1,
//			streamhist.WithDelta(0.005), streamhist.WithIncrementalRebuild(true))))
//
// Time-based maintainers (streamhist.WithSpan) have no fixed window and
// cannot back a stream; the factory then fails stream creation.
// Locking options are redundant here — the shard loop already serializes
// access per stream.
func MaintainerFactory(n, b int, eps float64, mopts ...streamhist.Option) shard.Factory {
	return func(string) (*shard.State, error) {
		m, err := streamhist.NewFixedWindow(n, b, eps, mopts...)
		if err != nil {
			return nil, err
		}
		fw := m.FixedWindow()
		if fw == nil {
			return nil, fmt.Errorf("server: maintainer factory: time-based maintainers (WithSpan) cannot back a stream")
		}
		return shard.NewState(fw)
	}
}
