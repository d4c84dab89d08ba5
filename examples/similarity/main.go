// Similarity search: index a collection of time series by B-segment
// approximations and answer range and nearest-neighbor queries through a
// lower-bounding filter — the section 5.2 application, comparing V-optimal
// histograms against APCA at the same budget.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"streamhist"
	"streamhist/internal/apca"
	"streamhist/internal/datagen"
	"streamhist/internal/similarity"
)

func main() {
	const (
		numSeries = 60
		length    = 128
		segments  = 8
	)

	// A family of correlated series: shared daily shape, per-series scale,
	// shift and noise (simulating many interfaces of one network).
	rng := rand.New(rand.NewSource(11))
	base := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 11}), length)
	corpus := make([][]float64, numSeries)
	for i := range corpus {
		s := make([]float64, length)
		scale := 0.5 + rng.Float64()
		shift := rng.NormFloat64() * 25
		for j := range s {
			s[j] = base[j]*scale + shift + rng.NormFloat64()*12
		}
		corpus[i] = s
	}

	voptBuilder := func(s []float64, b int) (*streamhist.Histogram, error) {
		res, err := streamhist.Optimal(s, b)
		if err != nil {
			return nil, err
		}
		return res.Histogram, nil
	}

	idxHist, err := similarity.NewIndex(corpus, segments, voptBuilder)
	if err != nil {
		log.Fatal(err)
	}
	idxAPCA, err := similarity.NewIndex(corpus, segments, apca.Build)
	if err != nil {
		log.Fatal(err)
	}

	// Query: a noisy copy of one corpus member.
	query := make([]float64, length)
	for j := range query {
		query[j] = corpus[17][j] + rng.NormFloat64()*8
	}

	// Pick a radius that matches a handful of series.
	const radius = 260.0
	for _, c := range []struct {
		name string
		idx  *similarity.Index
	}{
		{"V-optimal histograms", idxHist},
		{"APCA", idxAPCA},
	} {
		res, err := c.idx.RangeQuery(query, radius)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s radius %.0f: %d matches, %d candidates, %d false positives, %d false dismissals\n",
			c.name, radius, len(res.Matches), len(res.Candidates), res.FalsePositives, res.FalseDismissed)
	}

	best, dist, exact, err := idxHist.NearestNeighbor(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnearest neighbor: series %d at distance %.1f (verified %d of %d series exactly)\n",
		best, dist, exact, numSeries)
	if best == 17 {
		fmt.Println("correct: the query was a perturbed copy of series 17")
	}
}
