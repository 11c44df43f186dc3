package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cafc/internal/webgen"
)

// serveInputs are the serve workload's documents.
type serveInputs struct {
	genesisPath string
	corpus      *webgen.Corpus
	genesis     []page
	heldOut     []page // classify reads: never ingested
	tail        []page // the write tail after the read loop
	queries     []string
	ci          *corpusIndex
}

func makeServeInputs(seed int64, work string) (*serveInputs, error) {
	in := &serveInputs{genesisPath: filepath.Join(work, "serve-genesis.json.gz"), ci: newCorpusIndex()}
	var err error
	if in.corpus, err = genesis(subSeed(seed, 4), serveForms, in.genesisPath); err != nil {
		return nil, err
	}
	in.genesis = corpusPages(in.corpus)
	in.heldOut = formPages(subSeed(seed, 5), serveHeldOut, "held")
	in.tail = formPages(subSeed(seed, 6), serveTailBatches*batchSize, "tail")
	in.queries = titleQueries(in.genesis, subSeed(seed, 7), serveQueries)
	// Cycling through more distinct queries than the per-epoch cache
	// holds (1024, cleared when full) makes every search a miss.
	if len(in.queries) <= 1024 {
		return nil, fmt.Errorf("only %d distinct queries; need more than 1024", len(in.queries))
	}
	in.ci.add(in.genesis...)
	return in, nil
}

// serveMinMajority is the share of held-out pages that must land in a
// cluster whose majority gold domain is their own (chance is 1/8).
const serveMinMajority = 0.9

// runServe starts a memory-only directoryd on a 5k-page corpus and
// checks its listings, then runs serveSlices slices. Each slice runs the
// closed read loop for its share of the run's time, ingests its part of
// the write tail, and restarts the directory, which, memory-only,
// rebuilds from its genesis corpus. Spreading every metric's samples
// over the whole run averages over the host's speed swings, which last
// seconds to tens of seconds.
func runServe(r *run, seed int64, seconds float64, bin, work string) (map[string]metric, error) {
	in, err := makeServeInputs(seed, work)
	if err != nil {
		return nil, err
	}
	args := []string{"-live", "-in", in.genesisPath, "-addr", "127.0.0.1:0", "-flush", "1h"}
	var setup, restart, rss []float64
	start := func() (*daemon, error) {
		d, dur, err := launch(bin, args...)
		if err != nil {
			return nil, err
		}
		setup = append(setup, dur.Seconds())
		if s := r.status(d); s.Epoch != 1 || s.Pages != len(in.genesis) {
			r.violate("start at epoch %d with %d pages, want 1 with %d", s.Epoch, s.Pages, len(in.genesis))
		}
		return d, nil
	}
	d, err := start()
	if err != nil {
		return nil, err
	}

	want := make(map[string]bool, len(in.genesis))
	for _, p := range in.genesis {
		want[p.URL] = true
	}
	clusters := r.listings(d)
	_, f := r.checkQuality(clusters, want, in.ci.gold, seed)
	majority := majorityClasses(clusters, in.ci.gold)

	var (
		classify, search, sel, browse, publish samples
		tailWall                               time.Duration
	)
	agree, n := 0, 0
	perSlice := serveTailBatches / serveSlices
	for slice := 0; slice < serveSlices; slice++ {
		t0 := time.Now()
		for i := 0; i == 0 || time.Since(t0).Seconds() < seconds/serveSlices; i++ {
			p := in.heldOut[n%len(in.heldOut)]
			if c := r.classify(d, p, 1, &classify); c >= 0 && majority[c] == p.Class {
				agree++
			}
			r.search(d, in.ci, in.queries[n%len(in.queries)], 1, &search)
			r.selectDB(d, in.queries[(n+len(in.queries)/2)%len(in.queries)], &sel)
			r.browse(d, n%k, len(in.genesis), &browse)
			n++
		}

		epoch, pages := int64(1), len(in.genesis)
		t0 = time.Now()
		for b := slice * perSlice; b < (slice+1)*perSlice; b++ {
			epoch++
			pages += batchSize
			publish.add(r.ingest(d, in.tail[b*batchSize:(b+1)*batchSize], epoch, pages))
		}
		tailWall += time.Since(t0)
		hwm, err := d.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, hwm)

		r.attempted++
		t0 = time.Now()
		if err := d.stop(); err != nil {
			return nil, err
		}
		if d, err = start(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		restart = append(restart, time.Since(t0).Seconds())
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	share := float64(agree) / float64(n)
	fmt.Fprintf(os.Stderr, "perfbench: %.3f of %d held-out classifications in the domain's majority cluster\n", share, n)
	if share < serveMinMajority {
		r.violate("%.3f of held-out pages classified into their domain's majority cluster, want >= %.2f", share, serveMinMajority)
	}
	logTail(search)

	return map[string]metric{
		"setup_s":           {median(setup), "s"},
		"ingest_docs_per_s": {float64(len(in.tail)) / tailWall.Seconds(), "1/s"},
		"publish_p50_ms":    {median(publish), "ms"},
		"classify_p50_ms":   {median(classify), "ms"},
		"search_p50_ms":     {median(search), "ms"},
		"search_tail_ms":    {percentile(search, serveTailPct), "ms"},
		"select_p50_ms":     {median(sel), "ms"},
		"browse_p50_ms":     {median(browse), "ms"},
		"restart_s":         {median(restart), "s"},
		"rss_peak_mb":       {median(rss), "MiB"},
		"f_measure":         {f, "ratio"},
	}, nil
}
