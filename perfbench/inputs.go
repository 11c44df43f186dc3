package main

import (
	"html"
	"math/rand"
	"regexp"
	"strings"

	"cafc/internal/dataset"
	"cafc/internal/text"
	"cafc/internal/webgen"
)

// Workload shape. Every count here is fixed, so every round of a
// workload attempts the same operations whatever the seed.
const (
	k         = 8  // directoryd's default cluster count
	batchSize = 64 // directoryd's default ingest batch

	// grow: a fixed paper-sized genesis, a fixed first half of the pool
	// (so the restart probes see the same directory on every seed), then
	// a seeded second half.
	growLaunches    = 3 // starts on the genesis per round; setup_s is the median
	growGenesisSeed = 2007
	growGenesis     = 454
	fixedBatches    = 16
	seededBatches   = 16
	probeSeed       = 4242
	probeCount      = 200
	growHeldOut     = 64
	readsPerBatch   = 8 // of each kind: classify, search, select, browse
	restarts        = 3 // per round, at the probe point

	// serve: a seeded 5k-page genesis, held-out classify pages, and a
	// short write tail, split over the run's slices.
	serveForms       = 5000
	serveHeldOut     = 400
	serveQueries     = 2048 // > the 1024-entry per-epoch search cache
	serveSlices      = 3    // each: reads, part of the write tail, a restart
	serveTailBatches = 15   // serveSlices parts

	// Tail percentiles reported as search_tail_ms: the highest that keeps
	// at least minTailSamples samples beyond it and is steady across runs
	// on the reference host (see README.md).
	growTailPct  = 75
	serveTailPct = 90
)

// page is one generated form page with its gold domain.
type page struct {
	URL, HTML, Class string
}

// subSeed derives the seed of one input stream from the run seed.
func subSeed(seed int64, stream int64) int64 { return seed*7919 + stream }

// corpusPages returns the form pages of a generated corpus.
func corpusPages(c *webgen.Corpus) []page {
	out := make([]page, 0, len(c.FormPages))
	for _, u := range c.FormPages {
		out = append(out, page{URL: u, HTML: c.ByURL[u].HTML, Class: string(c.Labels[u])})
	}
	return out
}

// formPages generates n form pages (no link structure) whose URLs live
// under hosts prefixed with prefix, so pages of different streams never
// share a URL.
func formPages(seed int64, n int, prefix string) []page {
	ps := corpusPages(webgen.Generate(webgen.Config{Seed: seed, FormPages: n, FormsOnly: true}))
	for i := range ps {
		ps[i].URL = strings.Replace(ps[i].URL, "http://www.", "http://"+prefix+".", 1)
	}
	return ps
}

// genesis generates a corpus with hubs and site roots (what CAFC-CH
// needs at start), writes it as a dataset for directoryd -in, and
// returns it.
func genesis(seed int64, n int, path string) (*webgen.Corpus, error) {
	c := webgen.Generate(webgen.Config{Seed: seed, FormPages: n})
	return c, dataset.FromCorpus(c).Save(path)
}

var titleRE = regexp.MustCompile(`<title>(.*?)</title>`)

// titleQueries draws up to n distinct two-word queries from the titles
// of pages, as a user looking for one source would type them: a word of
// the title (lower-cased, not a stop word, unstemmed) followed by the
// site name the title carries. Site names are unique, so the queries
// are distinct; the title word sets how much of the index a query
// touches.
func titleQueries(pages []page, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, i := range rng.Perm(len(pages)) {
		if len(out) == n {
			break
		}
		m := titleRE.FindStringSubmatch(pages[i].HTML)
		if m == nil {
			continue
		}
		var words []string
		name := ""
		for _, t := range text.Tokenize(html.UnescapeString(m[1])) {
			switch {
			case strings.IndexAny(t, "0123456789") >= 0:
				name = t
			case !text.IsStopWord(t):
				words = append(words, t)
			}
		}
		if name != "" && len(words) > 0 {
			out = append(out, words[rng.Intn(len(words))]+" "+name)
		}
	}
	return out
}

// corpusIndex maps page URLs to their pages and gold classes, and
// caches each page's term set for the search checks.
type corpusIndex struct {
	byURL map[string]page
	gold  map[string]string
	terms map[string]map[string]bool
}

func newCorpusIndex() *corpusIndex {
	return &corpusIndex{byURL: map[string]page{}, gold: map[string]string{}, terms: map[string]map[string]bool{}}
}

func (ci *corpusIndex) add(ps ...page) {
	for _, p := range ps {
		ci.byURL[p.URL] = p
		ci.gold[p.URL] = p.Class
	}
}

// pageTerms returns the text.Terms of a page's whole HTML source — a
// superset of every term the search index can hold for it.
func (ci *corpusIndex) pageTerms(url string) map[string]bool {
	if t, ok := ci.terms[url]; ok {
		return t
	}
	t := make(map[string]bool)
	for _, term := range text.Terms(ci.byURL[url].HTML) {
		t[term] = true
	}
	ci.terms[url] = t
	return t
}

// doc is one element of a POST /ingest or /classify body.
type doc struct {
	URL  string `json:"url"`
	HTML string `json:"html"`
}

func docs(ps []page) []doc {
	out := make([]doc, len(ps))
	for i, p := range ps {
		out[i] = doc{URL: p.URL, HTML: p.HTML}
	}
	return out
}
