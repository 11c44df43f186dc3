package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cafc"
	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/directory"
	"cafc/internal/form"
	"cafc/internal/obs"
	"cafc/internal/obs/quality"
	"cafc/internal/search"
	"cafc/internal/stream"
	"cafc/internal/webgen"
	"cafc/internal/webgraph"
)

// The traced run measures every layer, each on the inputs of the
// workload that exercises it (ingest, publish and restart layers on
// grow's; setup, classify and search layers on serve's), whichever
// workload is named. It times the benchmark's own calls into each
// layer's public functions, so the end-to-end runs carry no tracing.

// directorydSeed and directorydRetries are directoryd's defaults for
// -seed and -retries, which the in-process runs reproduce.
const (
	directorydSeed    = 1
	directorydRetries = 3
)

// layerStats collects per-call samples of the traced grow pass.
type layerStats struct {
	batch, parse, model, freeze, observe, view, ui, other samples
}

func runTrace(r *run, seed int64, bin, work string) (map[string]metric, error) {
	gin, err := makeGrowInputs(seed, work)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	// Each phase calls phaseEnd while its directory is still alive.
	var heap float64
	phaseEnd := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = max(heap, float64(ms.HeapInuse)/(1<<20))
	}

	// Publish latency over HTTP, for the reconciliation residual.
	var gst growStats
	if err := growRound(r, gin, bin, work, &gst); err != nil {
		return nil, err
	}

	var ls layerStats
	if err := traceGrow(r, gin, work, &ls, out, phaseEnd); err != nil {
		return nil, err
	}
	plain, err := plainGrow(r, gin, work, phaseEnd)
	if err != nil {
		return nil, err
	}

	sin, err := makeServeInputs(seed, work)
	if err != nil {
		return nil, err
	}
	if err := traceServe(r, sin, out, phaseEnd); err != nil {
		return nil, err
	}

	stages := median(ls.batch) + median(ls.view) + median(ls.ui)
	for name, xs := range map[string]samples{
		"stream.batch_ms":        ls.batch,
		"stream.parse_ms":        ls.parse,
		"cafc.model_ms":          ls.model,
		"search.freeze_ms":       ls.freeze,
		"quality.observe_ms":     ls.observe,
		"cafc.epoch_view_ms":     ls.view,
		"directoryd.ui_build_ms": ls.ui,
		"stream.other_ms":        ls.other,
	} {
		out[name] = metric{median(xs), "ms"}
	}
	out["grow.publish_residual_ms"] = metric{median(gst.publish) - stages, "ms"}
	// The traced pass's first half against the same batches ingested
	// with no stage calls in between.
	out["trace.overhead_pct"] = metric{100 * (median(ls.batch[:fixedBatches]) - median(plain)) / median(plain), "%"}
	out["cafc.heap_mib"] = metric{heap, "MiB"}
	return out, nil
}

// liveSetup builds what directoryd -live builds at start: the genesis
// corpus, its CAFC-CH clustering, and the live directory with the
// quality monitor and the search index attached.
type liveSetup struct {
	opts   cafc.Options
	cfg    cafc.LiveConfig
	corpus *cafc.Corpus
	docs   []cafc.Document
	cl     *cafc.Clustering
	// corpusBuild and genesis time cafc.NewCorpus and Corpus.ClusterCH.
	corpusBuild, genesis time.Duration
}

func newLiveSetup(c *webgen.Corpus, dir string, reg *obs.Registry) (*liveSetup, error) {
	s := &liveSetup{opts: cafc.Options{
		SkipNonSearchable: true,
		Metrics:           reg,
		Retry:             &cafc.Retry{MaxAttempts: directorydRetries, Seed: directorydSeed},
	}}
	gold := make(map[string]string, len(c.Labels))
	for u, dom := range c.Labels {
		gold[u] = string(dom)
	}
	for _, u := range c.FormPages {
		s.docs = append(s.docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	t0 := time.Now()
	var err error
	if s.corpus, err = cafc.NewCorpus(s.docs, s.opts); err != nil {
		return nil, err
	}
	s.corpusBuild = time.Since(t0)
	svc := webgraph.NewBacklinkService(webgraph.FromCorpus(c), 100, 0, directorydSeed)
	t0 = time.Now()
	s.cl = s.corpus.ClusterCH(k, svc.Backlinks, c.RootOf, directorydSeed)
	s.genesis = time.Since(t0)
	s.cfg = cafc.LiveConfig{
		K:             k,
		Seed:          directorydSeed,
		FlushInterval: time.Hour,
		Dir:           dir,
		Quality:       &cafc.QualityConfig{Seed: directorydSeed, Labels: gold},
		Search:        &cafc.SearchConfig{},
	}
	return s, nil
}

// uiBuild builds the directory UI for an epoch the way directoryd's
// publish hook does.
func uiBuild(e *cafc.LiveEpoch) *directory.Server {
	html := make(map[string]string, len(e.Docs))
	for _, d := range e.Docs {
		html[d.URL] = d.HTML
	}
	labels := make([]string, len(e.Clustering.TopTerms))
	for i, terms := range e.Clustering.TopTerms {
		labels[i] = strings.Join(terms, " ")
		if i < len(e.SearchLabels) && e.SearchLabels[i] != "" {
			labels[i] = e.SearchLabels[i]
		}
	}
	return directory.Build(e.Clustering.Clusters, labels, html)
}

// ingestBatch offers a batch to the live directory and waits until its
// publish step has finished (the quality monitor observes last).
func ingestBatch(r *run, l *cafc.Live, ps []page, epoch int64) time.Duration {
	r.attempted++
	t0 := time.Now()
	for _, p := range ps {
		if err := l.Ingest(cafc.Document{URL: p.URL, HTML: p.HTML}); err != nil {
			r.violate("Live.Ingest: %v", err)
			return 0
		}
	}
	deadline := t0.Add(60 * time.Second)
	for {
		if q, ok := l.Quality(); ok && q.Epoch >= epoch {
			break
		}
		if time.Now().After(deadline) {
			r.violate("epoch %d not published within 60s", epoch)
			return 0
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(t0)
}

// epochAssign returns an epoch's cluster assignment in corpus order.
func epochAssign(e *cafc.LiveEpoch) []int {
	urls := e.Corpus.URLs()
	out := make([]int, len(urls))
	for i, u := range urls {
		out[i] = e.Clustering.Assign[u]
	}
	return out
}

// traceGrow grows the grow workload's directory in-process, restarting
// it where the end-to-end run does, and times each layer's calls on the
// same batches. Shadow copies of the model, the search index and the
// quality monitor, grown batch by batch beside the live directory, let
// each stage be timed alone.
func traceGrow(r *run, in *growInputs, work string, ls *layerStats, out map[string]metric, phaseEnd func()) error {
	dir := filepath.Join(work, "trace-state")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	s, err := newLiveSetup(in.corpus, dir, reg)
	if err != nil {
		return err
	}
	distances := reg.Counter("distance_computations_total")
	genesis := distances.Value()
	l, err := cafc.NewLive(s.corpus, s.docs, s.cl, s.cfg, s.opts)
	if err != nil {
		return err
	}
	defer func() { l.Close() }()

	gold := s.cfg.Quality.Labels
	var fps []*form.FormPage
	for _, d := range s.docs {
		fp, err := form.Parse(d.URL, d.HTML, form.DefaultWeights)
		if err != nil {
			return err
		}
		fps = append(fps, fp)
	}
	sm := icafc.Build(fps, false)
	sb := search.NewBuilder(nil)
	for _, fp := range fps {
		sb.Add(fp.URL, fp.Title, fp.PCTerms)
	}
	qm := quality.New(quality.Config{Seed: directorydSeed, Labels: gold})
	observe := func(seq int64, assign []int) quality.Epoch {
		members := cluster.Members(assign, k)
		cents := make([]cluster.Point, k)
		for c := range cents {
			cents[c] = sm.Centroid(members[c])
		}
		m := sm
		return quality.Epoch{Seq: seq, Space: m, Assign: assign, K: k, Centroids: cents,
			URL: func(i int) string { return m.Pages[i].URL }}
	}
	qm.ObserveEpoch(observe(1, epochAssign(l.Epoch())), time.Now())

	epoch := int64(1)
	grow := func(pool []page) {
		for b := 0; b*batchSize < len(pool); b++ {
			epoch++
			batch := pool[b*batchSize : (b+1)*batchSize]
			ls.batch.add(ingestBatch(r, l, batch, epoch))
			t0 := time.Now()
			e := l.Epoch()
			ls.view.add(time.Since(t0))
			t0 = time.Now()
			uiBuild(e)
			ls.ui.add(time.Since(t0))

			sdocs := make([]stream.Doc, len(batch))
			for i, p := range batch {
				sdocs[i] = stream.Doc{URL: p.URL, HTML: p.HTML}
			}
			t0 = time.Now()
			bfps := stream.ParseDocs(sdocs, form.DefaultWeights, 0)
			parse := time.Since(t0)
			t0 = time.Now()
			next := sm.Clone()
			next.Workers = 0
			next.AppendPages(bfps)
			model := time.Since(t0)
			sm = next
			assign := epochAssign(e)
			t0 = time.Now()
			for _, fp := range bfps {
				sb.Add(fp.URL, fp.Title, fp.PCTerms)
			}
			sb.Freeze(e.Epoch, assign, k, search.Options{})
			freeze := time.Since(t0)
			qe := observe(e.Epoch, assign)
			t0 = time.Now()
			qm.ObserveEpoch(qe, time.Now())
			obsv := time.Since(t0)

			ls.parse.add(parse)
			ls.model.add(model)
			ls.freeze.add(freeze)
			ls.observe.add(obsv)
			ls.other = append(ls.other, ls.batch[len(ls.batch)-1]-ms(parse+model+freeze+obsv))
		}
	}

	grow(in.fixedPool)
	r.attempted++
	t0 := time.Now()
	if err := l.Drain(context.Background()); err != nil {
		return err
	}
	drain := time.Since(t0)
	l.Close()
	state, err := dirBytes(dir)
	if err != nil {
		return err
	}
	before := distances.Value()
	t0 = time.Now()
	if l, err = cafc.RecoverLive(s.cfg, s.opts); err != nil {
		return err
	}
	recover := time.Since(t0)
	recovery := distances.Value() - before
	if e := l.Epoch(); e == nil || e.Epoch != epoch {
		r.violate("in-process recovery did not restore epoch %d", epoch)
	}
	grow(in.seededPool)
	phaseEnd()

	out["stream.drain_ms"] = metric{ms(drain), "ms"}
	out["stream.recover_ms"] = metric{ms(recover), "ms"}
	out["stream.state_mib"] = metric{float64(state) / (1 << 20), "MiB"}
	out["cluster.distance_computations"] = metric{float64(genesis + recovery), "count"}
	return nil
}

// plainGrow ingests the fixed half of the pool in-process with nothing
// but directoryd's own publish work (epoch view and UI build) between
// batches, and returns the batch latencies.
func plainGrow(r *run, in *growInputs, work string, phaseEnd func()) (samples, error) {
	dir := filepath.Join(work, "plain-state")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	s, err := newLiveSetup(in.corpus, dir, nil)
	if err != nil {
		return nil, err
	}
	l, err := cafc.NewLive(s.corpus, s.docs, s.cl, s.cfg, s.opts)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var batch samples
	for b := 0; b < fixedBatches; b++ {
		batch.add(ingestBatch(r, l, in.fixedPool[b*batchSize:(b+1)*batchSize], int64(b+2)))
		uiBuild(l.Epoch())
	}
	phaseEnd()
	return batch, nil
}

// traceServe builds the serve workload's directory in-process and times
// the read-side layers on its held-out pages and queries.
func traceServe(r *run, in *serveInputs, out map[string]metric, phaseEnd func()) error {
	s, err := newLiveSetup(in.corpus, "", nil)
	if err != nil {
		return err
	}
	out["cafc.corpus_build_ms"] = metric{ms(s.corpusBuild), "ms"}
	out["cluster.genesis_ms"] = metric{ms(s.genesis), "ms"}

	// The classifier, search index and UI of the genesis epoch, built
	// the way the live directory and directoryd's publish hook build
	// them.
	urls := s.corpus.URLs()
	var fps []*form.FormPage
	html := make(map[string]string, len(s.docs))
	for _, d := range s.docs {
		html[d.URL] = d.HTML
	}
	assign := make([]int, len(urls))
	for i, u := range urls {
		fp, err := form.Parse(u, html[u], form.DefaultWeights)
		if err != nil {
			return err
		}
		fps = append(fps, fp)
		assign[i] = s.cl.Assign[u]
	}
	m := icafc.Build(fps, false)
	members := cluster.Members(assign, k)
	cents := make([]cluster.Point, k)
	labels := make([]string, k)
	for c := range cents {
		cents[c] = m.Centroid(members[c])
		labels[c] = strings.Join(s.cl.TopTerms[c], " ")
	}
	clf := icafc.NewClassifierFromCentroids(m, cents, labels)
	sb := search.NewBuilder(nil)
	for _, fp := range fps {
		sb.Add(fp.URL, fp.Title, fp.PCTerms)
	}
	snap := sb.Freeze(1, assign, k, search.Options{})
	for i, l := range snap.ClusterLabels() {
		if l != "" {
			labels[i] = l
		}
	}
	ui := directory.Build(s.cl.Clusters, labels, html).Snapshot()

	var parse, score, query, sel samples
	for _, p := range in.heldOut {
		r.attempted++
		t0 := time.Now()
		fp, err := form.Parse(p.URL, p.HTML, form.DefaultWeights)
		parse.add(time.Since(t0))
		if err != nil {
			r.violate("parse held-out page %s: %v", p.URL, err)
			continue
		}
		t0 = time.Now()
		clf.Classify(fp)
		score.add(time.Since(t0))
	}
	for _, q := range in.queries[:len(in.heldOut)] {
		r.attempted++
		t0 := time.Now()
		if _, cached := snap.Search(q, searchK); cached {
			r.violate("search %q served from cache", q)
		}
		query.add(time.Since(t0))
		t0 = time.Now()
		ui.SearchClusters(q, k)
		sel.add(time.Since(t0))
	}
	for name, xs := range map[string]samples{
		"form.parse_us":    parse,
		"cafc.classify_us": score,
		"search.query_us":  query,
		"search.select_us": sel,
	} {
		out[name] = metric{1000 * median(xs), "us"}
	}
	phaseEnd()
	runtime.KeepAlive(s)
	runtime.KeepAlive(clf)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(ui)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
