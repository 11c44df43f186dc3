package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"cafc/internal/text"
)

// run accumulates one benchmark run's operation counts and check
// failures.
type run struct {
	attempted, failed int64
	violations        int
}

// violate records a failed correctness check; the run reports
// correct=false.
func (r *run) violate(format string, args ...any) {
	r.violations++
	if r.violations <= 20 {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// liveStatus is the part of GET /status the benchmark reads.
type liveStatus struct {
	Epoch int64
	Pages int
}

func (r *run) status(d *daemon) liveStatus {
	var s liveStatus
	st, _, b, _, err := d.do("GET", "/status", nil)
	if err != nil || st != http.StatusOK {
		r.violate("GET /status: %d %v", st, err)
		return s
	}
	if err := json.Unmarshal(b, &s); err != nil {
		r.violate("GET /status: %v", err)
	}
	return s
}

// ingest posts one batch and waits until it is published: /status shows
// its epoch and the directory UI lists its pages (directoryd advances
// /status before its publish hook has rebuilt the UI). It returns the
// time from the POST until then.
func (r *run) ingest(d *daemon, ps []page, epoch int64, pages int) time.Duration {
	r.attempted++
	body, _ := json.Marshal(docs(ps))
	t0 := time.Now()
	st, _, b, _, err := d.do("POST", "/ingest", body)
	if err != nil || st != http.StatusAccepted {
		r.violate("POST /ingest: %d %v %s", st, err, b)
		return 0
	}
	var q struct{ Queued int }
	if json.Unmarshal(b, &q); q.Queued != len(ps) {
		r.violate("POST /ingest queued %d of %d", q.Queued, len(ps))
	}
	deadline := t0.Add(60 * time.Second)
	for r.status(d).Epoch < epoch {
		if time.Now().After(deadline) {
			r.violate("epoch %d not published within 60s", epoch)
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	for {
		_, _, b, _, err := d.do("GET", "/", nil)
		front, perr := parseFront(string(b))
		if err == nil && perr == nil && frontPages(front) == pages {
			break
		}
		if time.Now().After(deadline) {
			r.violate("UI for epoch %d not rebuilt within 60s", epoch)
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0)
}

func frontPages(front []frontEntry) int {
	n := 0
	for _, e := range front {
		n += e.Size
	}
	return n
}

// classify posts one page to /classify and returns its cluster (-1 on
// error). A non-zero epoch must match the answer's epoch.
func (r *run) classify(d *daemon, p page, epoch int64, lat *samples) int {
	r.attempted++
	body, _ := json.Marshal(doc{URL: p.URL, HTML: p.HTML})
	st, _, b, dur, err := d.do("POST", "/classify", body)
	if err != nil || st != http.StatusOK {
		r.violate("POST /classify: %d %v %s", st, err, b)
		return -1
	}
	lat.add(dur)
	var res struct {
		Cluster int
		OK      bool
		Epoch   int64
	}
	if err := json.Unmarshal(b, &res); err != nil {
		r.violate("POST /classify: %v", err)
		return -1
	}
	if res.Cluster < 0 || res.Cluster >= k {
		r.violate("classify %s: cluster %d outside [0,%d)", p.URL, res.Cluster, k)
	}
	if epoch != 0 && res.Epoch != epoch {
		r.violate("classify answered at epoch %d, want %d", res.Epoch, epoch)
	}
	return res.Cluster
}

// searchK is the hit count the benchmark asks /search for.
const searchK = 10

// search runs one uncached /search and checks it: a cache miss, at most
// searchK hits of known pages with non-increasing scores, each sharing a
// term with the query. A non-zero epoch must match the answer's.
func (r *run) search(d *daemon, ci *corpusIndex, q string, epoch int64, lat *samples) {
	r.attempted++
	st, h, b, dur, err := d.do("GET", "/search?k="+strconv.Itoa(searchK)+"&q="+url.QueryEscape(q), nil)
	if err != nil || st != http.StatusOK {
		r.violate("GET /search %q: %d %v %s", q, st, err, b)
		return
	}
	lat.add(dur)
	if c := h.Get("X-Cache"); c != "MISS" {
		r.violate("search %q: X-Cache %q, want MISS", q, c)
	}
	var res struct {
		Epoch int64
		Hits  []struct {
			URL   string
			Score float64
		}
	}
	if err := json.Unmarshal(b, &res); err != nil {
		r.violate("search %q: %v", q, err)
		return
	}
	if epoch != 0 && res.Epoch != epoch {
		r.violate("search answered at epoch %d, want %d", res.Epoch, epoch)
	}
	if len(res.Hits) > searchK {
		r.violate("search %q: %d hits, asked for %d", q, len(res.Hits), searchK)
	}
	qterms := text.Terms(q)
	for i, hit := range res.Hits {
		if i > 0 && hit.Score > res.Hits[i-1].Score {
			r.violate("search %q: scores rise at hit %d", q, i)
		}
		if _, ok := ci.byURL[hit.URL]; !ok {
			r.violate("search %q: unknown hit %s", q, hit.URL)
			continue
		}
		terms := ci.pageTerms(hit.URL)
		shared := false
		for _, t := range qterms {
			shared = shared || terms[t]
		}
		if !shared {
			r.violate("search %q: hit %s shares no term with the query", q, hit.URL)
		}
	}
}

// selectDB runs one database-selection query and checks its ranking.
func (r *run) selectDB(d *daemon, q string, lat *samples) {
	r.attempted++
	st, _, b, dur, err := d.do("GET", "/select?q="+url.QueryEscape(q), nil)
	if err != nil || st != http.StatusOK {
		r.violate("GET /select %q: %d %v", q, st, err)
		return
	}
	lat.add(dur)
	if err := checkSelect(parseSelect(string(b)), k); err != nil {
		r.violate("select %q: %v", q, err)
	}
}

// browse opens the front page and then one cluster page; the latency is
// the sum of both round trips. The front page must account for pages
// and the cluster page must list as many members as the front page
// says.
func (r *run) browse(d *daemon, id, pages int, lat *samples) {
	r.attempted++
	st, _, b, d1, err := d.do("GET", "/", nil)
	if err != nil || st != http.StatusOK {
		r.violate("GET /: %d %v", st, err)
		return
	}
	front, err := parseFront(string(b))
	if err != nil {
		r.violate("GET /: %v", err)
		return
	}
	if n := frontPages(front); n != pages || len(front) != k {
		r.violate("front page lists %d pages in %d clusters, want %d in %d", n, len(front), pages, k)
		return
	}
	st, _, b, d2, err := d.do("GET", "/cluster?id="+strconv.Itoa(id), nil)
	if err != nil || st != http.StatusOK {
		r.violate("GET /cluster?id=%d: %d %v", id, st, err)
		return
	}
	lat.add(d1 + d2)
	members, err := parseCluster(string(b))
	if err != nil || len(members) != front[id].Size {
		r.violate("cluster %d lists %d members, front page says %d (%v)", id, len(members), front[id].Size, err)
	}
}

// listings reads every cluster's member list through the UI.
func (r *run) listings(d *daemon) [][]string {
	r.attempted++
	_, _, b, _, err := d.do("GET", "/", nil)
	front, perr := parseFront(string(b))
	if err != nil || perr != nil {
		r.violate("GET /: %v %v", err, perr)
		return nil
	}
	out := make([][]string, len(front))
	for i := range front {
		st, _, b, _, err := d.do("GET", "/cluster?id="+strconv.Itoa(i), nil)
		if err != nil || st != http.StatusOK {
			r.violate("GET /cluster?id=%d: %d %v", i, st, err)
			return nil
		}
		if out[i], err = parseCluster(string(b)); err != nil {
			r.violate("cluster %d: %v", i, err)
		}
	}
	return out
}

// checkQuality verifies that the served clustering partitions want and
// beats a random assignment with the same cluster sizes on both entropy
// and F-measure, and returns its entropy and F-measure.
func (r *run) checkQuality(clusters [][]string, want map[string]bool, gold map[string]string, seed int64) (entropy, f float64) {
	if err := checkPartition(clusters, want); err != nil {
		r.violate("listings: %v", err)
	}
	entropy, f = clusterQuality(clusters, gold)
	re, rf := randomQuality(clusters, gold, seed)
	if !(entropy < re && f > rf) {
		r.violate("clustering (entropy %.3f, F %.3f) does not beat random (entropy %.3f, F %.3f)", entropy, f, re, rf)
	}
	return entropy, f
}
