// Package streamhist is a Go implementation of the streaming histogram
// algorithms of Sudipto Guha and Nick Koudas, "Approximating a Data Stream
// for Querying and Estimation: Algorithms and Performance Evaluation"
// (ICDE 2002), together with every substrate and baseline the paper's
// evaluation depends on.
//
// The library answers one question well: how do you keep a provably good
// B-bucket piecewise-constant approximation (a V-optimal histogram under
// sum squared error) of a stream you can see only once, using memory far
// smaller than the stream?
//
// Two stream models are supported:
//
//   - Fixed window (the paper's primary contribution, Figure 5): an
//     epsilon-approximate B-bucket histogram of the most recent n points,
//     maintained in O((B^3/eps^2) log^3 n) time per arriving point. See
//     NewFixedWindow.
//
//   - Agglomerative (Figure 3, from Guha, Koudas & Shim, STOC 2001): an
//     epsilon-approximate histogram of everything seen since the start of
//     the stream, in one pass and O((B^2/eps) log n) space. See
//     NewAgglomerative.
//
// Both are measured against the exact quadratic dynamic program of
// Jagadish et al. (Optimal). The classical baselines the paper compares
// with (Haar wavelet synopses, APCA, equal-width and equal-depth
// histograms) and the substrates its evaluation depends on live in the
// module's internal packages; cmd/experiments reproduces the evaluation.
//
// A minimal use:
//
//	fw, err := streamhist.NewFixedWindow(4096, 16, 0.1)
//	if err != nil { ... }
//	for v := range stream {
//		fw.Push(v)
//	}
//	res, err := fw.Histogram()
//	sum := res.Histogram.EstimateRangeSum(100, 900) // positions in window
//
// NewFixedWindowWithDelta takes an explicit accuracy/speed growth factor
// in place of the paper's eps/(2B), and NewTimeWindow keeps the points of
// the latest span of stream time instead of the last n. A FixedWindow's
// SetRegistry attaches hot-path instrumentation to a Metrics registry,
// served in Prometheus text format by its Handler:
//
//	reg := streamhist.NewMetrics()
//	fw.SetRegistry(reg)
//	http.Handle("/metrics", reg.Handler())
//
// A maintainer is not safe for concurrent use; a caller that shares one
// across goroutines guards it with its own mutex.
//
// # Serving summaries
//
// cmd/streamhistd wraps the library in a multi-tenant HTTP daemon: every
// stream key owns an independent summary set, hash-partitioned across
// shard loops, served under versioned /v1/streams/{key}/... routes with
// optional write-ahead durability.
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the reproduction of the paper's evaluation.
package streamhist
