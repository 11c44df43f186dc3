package main

import (
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"cafc/internal/directory"
	"cafc/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Two clusters over five pages of classes A and B:
//
//	cluster 0 = {a1, a2, b1}: entropy -(2/3 ln 2/3 + 1/3 ln 1/3) = 0.636514,
//	  best F is class A: P = 2/3, R = 1, F = 0.8
//	cluster 1 = {b2, b3}: entropy 0, class B: P = 1, R = 2/3, F = 0.8
//
// so entropy = 3/5 * 0.636514 and F = 3/5 * 0.8 + 2/5 * 0.8 = 0.8.
func TestClusterQualityHandWorked(t *testing.T) {
	clusters := [][]string{{"a1", "a2", "b1"}, {"b2", "b3"}}
	gold := map[string]string{"a1": "A", "a2": "A", "b1": "B", "b2": "B", "b3": "B"}
	e, f := clusterQuality(clusters, gold)
	wantE := 3.0 / 5 * -(2.0/3*math.Log(2.0/3) + 1.0/3*math.Log(1.0/3))
	if !near(e, wantE) || !near(f, 0.8) {
		t.Fatalf("entropy %v F %v, want %v 0.8", e, f, wantE)
	}
	// The program's own implementation agrees.
	l := metrics.Labeling{Assign: []int{0, 0, 0, 1, 1}, Classes: []string{"A", "A", "B", "B", "B"}}
	if !near(metrics.Entropy(l), e) || !near(metrics.FMeasure(l), f) {
		t.Fatalf("internal/metrics gives entropy %v F %v", metrics.Entropy(l), metrics.FMeasure(l))
	}
	// Pages without a gold class are ignored.
	clusters[1] = append(clusters[1], "unlabelled")
	if e2, f2 := clusterQuality(clusters, gold); !near(e2, e) || !near(f2, f) {
		t.Fatalf("unlabelled page changed the scores: %v %v", e2, f2)
	}
	if re, rf := randomQuality([][]string{{"a1", "a2"}, {"b1", "b2", "b3"}}, gold, 1); re < 0 || rf > 1 {
		t.Fatalf("random baseline out of range: %v %v", re, rf)
	}
}

func TestProbeChangesIgnoresRenumbering(t *testing.T) {
	before := []int{0, 0, 1, 1, 2}
	if n := probeChanges(before, []int{5, 5, 3, 3, 7}); n != 0 {
		t.Fatalf("renumbered clustering: %d changes, want 0", n)
	}
	// Probe 1 moves into probes 2 and 3's cluster: probes 0-3 see their
	// co-cluster sets change, probe 4 does not.
	if n := probeChanges(before, []int{0, 1, 1, 1, 2}); n != 4 {
		t.Fatalf("%d changes, want 4", n)
	}
	// Merging two clusters changes all their members.
	if n := probeChanges(before, []int{0, 0, 0, 0, 2}); n != 4 {
		t.Fatalf("merge: %d changes, want 4", n)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{99, 1000, true}, // rank 990, 10 beyond
		{99, 999, false}, // rank 990, 9 beyond
		{90, 100, true},  // rank 90, 10 beyond
		{90, 99, false},  // rank 90, 9 beyond
		{50, 39, false},  // below 40 samples only the median is reported
		{75, 40, true},   // rank 30, 10 beyond
	} {
		if got := tailOK(c.p, c.n); got != c.ok {
			t.Errorf("tailOK(%v, %d) = %v, want %v", c.p, c.n, got, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %v", got)
	}
	if got := percentile(xs[:50], 90); !math.IsNaN(got) {
		t.Fatalf("p90 of 50 samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

// The listing parsers read pages rendered by the directory UI itself.
func TestParsersOnDirectoryPages(t *testing.T) {
	page := func(title, body string) string {
		return "<html><head><title>" + title + "</title></head><body><p>" + body +
			`</p><form action="/s"><input type="text" name="q"><input type="submit" value="Go"></form></body></html>`
	}
	html := map[string]string{
		"http://a.example/search.html?x=1&y=2": page("Cheap Flights & Fares", "book cheap flights to any airport"),
		"http://b.example/search.html":         page("Flight Deals", "airline flights and fares"),
		"http://c.example/search.html":         page("Used Cars", "search used cars by make and model"),
	}
	clusters := [][]string{
		{"http://a.example/search.html?x=1&y=2", "http://b.example/search.html"},
		{"http://c.example/search.html"},
	}
	h := directory.Build(clusters, []string{"air <travel> & fares", ""}, html).Handler()
	get := func(path string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		return w.Body.String()
	}

	front, err := parseFront(get("/"))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 2 || front[0].Size != 2 || front[1].Size != 1 || front[0].Label != "air <travel> & fares" {
		t.Fatalf("front = %+v", front)
	}
	for i, want := range clusters {
		got, err := parseCluster(get("/cluster?id=" + string(rune('0'+i))))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster %d = %v (%v), want %v", i, got, err, want)
		}
	}
	if err := checkPartition(clusters, map[string]bool{
		"http://a.example/search.html?x=1&y=2": true, "http://b.example/search.html": true, "http://c.example/search.html": true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := checkPartition(clusters, map[string]bool{"http://c.example/search.html": true}); err == nil {
		t.Fatal("partition check accepted unknown pages")
	}

	sel := parseSelect(get("/select?q=flights"))
	if len(sel) != 1 || sel[0].ID != 0 || sel[0].Matches != 2 || sel[0].Score <= 0 {
		t.Fatalf("select = %+v", sel)
	}
	if err := checkSelect(sel, 2); err != nil {
		t.Fatal(err)
	}
	if sel := parseSelect(get("/select?q=nothingmatches")); len(sel) != 0 {
		t.Fatalf("select with no match = %+v", sel)
	}
	if err := checkSelect([]selectEntry{{0, 1, 1}, {1, 1, 2}}, 2); err == nil {
		t.Fatal("checkSelect accepted rising scores")
	}
}
