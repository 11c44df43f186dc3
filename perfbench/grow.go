package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cafc/internal/webgen"
)

// growInputs are the grow workload's documents.
type growInputs struct {
	genesisPath string
	corpus      *webgen.Corpus
	genesis     []page
	fixedPool   []page // the first half of the pool: the same on every seed
	seededPool  []page // the second half of the pool: drawn from the seed
	probes      []page // restart probes: the same on every seed, never ingested
	heldOut     []page // classify reads: never ingested
	queries     []string
	ci          *corpusIndex
}

func makeGrowInputs(seed int64, work string) (*growInputs, error) {
	in := &growInputs{genesisPath: filepath.Join(work, "grow-genesis.json.gz"), ci: newCorpusIndex()}
	var err error
	if in.corpus, err = genesis(growGenesisSeed, growGenesis, in.genesisPath); err != nil {
		return nil, err
	}
	in.genesis = corpusPages(in.corpus)
	in.fixedPool = formPages(growGenesisSeed+1, fixedBatches*batchSize, "fixed")
	in.seededPool = formPages(subSeed(seed, 1), seededBatches*batchSize, "pool")
	in.probes = formPages(probeSeed, probeCount, "probe")
	in.heldOut = formPages(subSeed(seed, 2), growHeldOut, "held")
	in.queries = titleQueries(in.genesis, subSeed(seed, 3), 512)
	in.ci.add(in.genesis...)
	in.ci.add(in.fixedPool...)
	in.ci.add(in.seededPool...)
	return in, nil
}

// growStats collects the grow workload's measurements across rounds.
type growStats struct {
	setup, restart, rate, rss, f           []float64
	publish, classify, search, sel, browse samples
}

// growRound runs one round of the grow workload: start on the genesis
// (growLaunches times, keeping the last), ingest the fixed half of the
// pool with reads after every batch, classify the probes, restart
// (restarts times, classifying the probes again after the first),
// ingest the seeded half, and check the final directory.
func growRound(r *run, in *growInputs, bin, work string, st *growStats) error {
	state := filepath.Join(work, "grow-state")
	args := []string{"-live", "-in", in.genesisPath, "-data", state, "-addr", "127.0.0.1:0", "-flush", "1h"}
	var d *daemon
	for i := 0; i < growLaunches; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(state); err != nil {
			return err
		}
		var dur time.Duration
		var err error
		if d, dur, err = launch(bin, args...); err != nil {
			return err
		}
		st.setup = append(st.setup, dur.Seconds())
	}

	epoch, pages := int64(1), len(in.genesis)
	if s := r.status(d); s.Epoch != epoch || s.Pages != pages {
		r.violate("genesis at epoch %d with %d pages, want %d with %d", s.Epoch, s.Pages, epoch, pages)
	}
	held, query := 0, 0
	grow := func(pool []page) time.Duration {
		t0 := time.Now()
		for b := 0; b*batchSize < len(pool); b++ {
			epoch++
			pages += batchSize
			st.publish.add(r.ingest(d, pool[b*batchSize:(b+1)*batchSize], epoch, pages))
			for i := 0; i < readsPerBatch; i++ {
				r.classify(d, in.heldOut[held%len(in.heldOut)], epoch, &st.classify)
				r.search(d, in.ci, in.queries[query%len(in.queries)], epoch, &st.search)
				r.selectDB(d, in.queries[(query+1)%len(in.queries)], &st.sel)
				r.browse(d, held%k, pages, &st.browse)
				held++
				query += 2
			}
		}
		return time.Since(t0)
	}
	probe := func() []int {
		var discard samples
		out := make([]int, len(in.probes))
		for i, p := range in.probes {
			out[i] = r.classify(d, p, epoch, &discard)
		}
		return out
	}

	wall := grow(in.fixedPool)
	before := probe()
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}

	// The first restart is checked with the probes; the others only time
	// the restart and check the directory's epoch and size.
	for i := 0; i < restarts; i++ {
		r.attempted++
		t0 := time.Now()
		if err := d.stop(); err != nil {
			return err
		}
		if d, _, err = launch(bin, args...); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		st.restart = append(st.restart, time.Since(t0).Seconds())
		if s := r.status(d); s.Epoch != epoch || s.Pages != pages {
			r.violate("restart changed the directory: epoch %d with %d pages, want %d with %d", s.Epoch, s.Pages, epoch, pages)
		}
		if i == 0 {
			// A probe fails when the probes sharing its cluster change
			// across the restart: recovery recomputes the clustering
			// instead of restoring it.
			r.failed += int64(probeChanges(before, probe()))
		}
		if rss2, err := d.peakRSSMiB(); err == nil {
			rss = max(rss, rss2)
		}
	}

	wall += grow(in.seededPool)
	st.rate = append(st.rate, float64(len(in.fixedPool)+len(in.seededPool))/wall.Seconds())
	if want := int64(1 + fixedBatches + seededBatches); epoch != want {
		return fmt.Errorf("internal: ended at epoch %d, want %d", epoch, want)
	}
	if s := r.status(d); s.Epoch != epoch || s.Pages != pages {
		r.violate("final directory at epoch %d with %d pages, want %d with %d", s.Epoch, s.Pages, epoch, pages)
	}
	want := make(map[string]bool, pages)
	for _, ps := range [][]page{in.genesis, in.fixedPool, in.seededPool} {
		for _, p := range ps {
			want[p.URL] = true
		}
	}
	_, f := r.checkQuality(r.listings(d), want, in.ci.gold, int64(len(st.f)))
	st.f = append(st.f, f)
	rss2, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	st.rss = append(st.rss, max(rss, rss2))
	return d.stop()
}

// runGrow repeats grow rounds until the run's time is spent (at least
// one round).
func runGrow(r *run, seed int64, seconds float64, bin, work string) (map[string]metric, error) {
	in, err := makeGrowInputs(seed, work)
	if err != nil {
		return nil, err
	}
	var st growStats
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		if err := growRound(r, in, bin, work, &st); err != nil {
			return nil, err
		}
	}
	logTail(st.search)
	return map[string]metric{
		"setup_s":           {median(st.setup), "s"},
		"ingest_docs_per_s": {median(st.rate), "1/s"},
		"publish_p50_ms":    {median(st.publish), "ms"},
		"classify_p50_ms":   {median(st.classify), "ms"},
		"search_p50_ms":     {median(st.search), "ms"},
		"search_tail_ms":    {percentile(st.search, growTailPct), "ms"},
		"select_p50_ms":     {median(st.sel), "ms"},
		"browse_p50_ms":     {median(st.browse), "ms"},
		"restart_s":         {median(st.restart), "s"},
		"rss_peak_mb":       {median(st.rss), "MiB"},
		"f_measure":         {median(st.f), "ratio"},
	}, nil
}
