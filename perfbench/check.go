package main

import (
	"fmt"
	"html"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// frontEntry is one cluster line of the directory front page.
type frontEntry struct {
	ID    int
	Label string
	Size  int
}

// selectEntry is one ranked cluster of a /select (database selection)
// page.
type selectEntry struct {
	ID      int
	Matches int
	Score   float64
}

// The listing pages render one <li> per line; the parsers cut each
// line at the fixed text around its fields.
const (
	clusterLink = `<li><a href="/cluster?id=`
	memberLink  = `<li><a href="`
)

// cut returns the text of s between the first before and the next
// after it, and whether both were found.
func cut(s, before, after string) (string, bool) {
	_, rest, ok := strings.Cut(s, before)
	if !ok {
		return "", false
	}
	field, _, ok := strings.Cut(rest, after)
	return field, ok
}

// parseFront reads the cluster list of the directory front page.
func parseFront(body string) ([]frontEntry, error) {
	var out []frontEntry
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, clusterLink) || !strings.HasSuffix(line, " databases)</li>") {
			continue
		}
		id, rest, ok := strings.Cut(line[len(clusterLink):], `">`)
		i := strings.LastIndex(rest, "</a> (")
		if !ok || i < 0 {
			return nil, fmt.Errorf("front page line %q", line)
		}
		e := frontEntry{Label: html.UnescapeString(rest[:i])}
		var err1, err2 error
		e.ID, err1 = strconv.Atoi(id)
		e.Size, err2 = strconv.Atoi(strings.TrimSuffix(rest[i+len("</a> ("):], " databases)</li>"))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("front page line %q", line)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("front page lists no clusters")
	}
	for i, e := range out {
		if e.ID != i {
			return nil, fmt.Errorf("front page lists cluster %d at position %d", e.ID, i)
		}
	}
	return out, nil
}

// parseCluster reads the member URLs of a /cluster?id= page.
func parseCluster(body string) ([]string, error) {
	if !strings.Contains(body, "<ul>\n") || !strings.Contains(body, "</ul>") {
		return nil, fmt.Errorf("cluster page has no member list")
	}
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if u, ok := cut(line, memberLink, `"`); ok && strings.HasPrefix(line, memberLink) {
			out = append(out, html.UnescapeString(u))
		}
	}
	return out, nil
}

// parseSelect reads the ranked clusters of a /select?q= page.
func parseSelect(body string) []selectEntry {
	var out []selectEntry
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, clusterLink) || !strings.HasSuffix(line, ")</li>") {
			continue
		}
		id, _ := cut(line, clusterLink, `">`)
		n, _ := cut(line, "</a> — ", " matching sources, best: ")
		i := strings.LastIndex(line, "(total score ")
		if i < 0 {
			continue
		}
		score := strings.TrimSuffix(line[i+len("(total score "):], ")</li>")
		var e selectEntry
		e.ID, _ = strconv.Atoi(id)
		e.Matches, _ = strconv.Atoi(n)
		e.Score, _ = strconv.ParseFloat(score, 64)
		out = append(out, e)
	}
	return out
}

// checkSelect verifies a database-selection answer: known cluster ids,
// each listed once, at least one match each, scores non-increasing.
func checkSelect(es []selectEntry, k int) error {
	seen := make(map[int]bool)
	for i, e := range es {
		if e.ID < 0 || e.ID >= k || seen[e.ID] {
			return fmt.Errorf("select lists cluster %d (k=%d) out of range or twice", e.ID, k)
		}
		seen[e.ID] = true
		if e.Matches < 1 {
			return fmt.Errorf("select lists cluster %d with %d matches", e.ID, e.Matches)
		}
		if i > 0 && e.Score > es[i-1].Score {
			return fmt.Errorf("select scores rise: %v after %v", e.Score, es[i-1].Score)
		}
	}
	return nil
}

// checkPartition verifies that the cluster listings hold every expected
// URL exactly once and nothing else.
func checkPartition(clusters [][]string, want map[string]bool) error {
	seen := make(map[string]bool, len(want))
	for ci, members := range clusters {
		for _, u := range members {
			if !want[u] {
				return fmt.Errorf("cluster %d lists unknown page %s", ci, u)
			}
			if seen[u] {
				return fmt.Errorf("page %s listed twice", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("listings hold %d of %d pages", len(seen), len(want))
	}
	return nil
}

// clusterQuality returns the paper's entropy (Equation 5: per-cluster class
// entropy in nats, weighted by cluster size) and F-measure (Equation 6:
// per-cluster best class F score, weighted by cluster size) of a
// clustering given as member lists, against gold classes. Pages without
// a gold class are ignored.
func clusterQuality(clusters [][]string, gold map[string]string) (entropy, f float64) {
	classTotal := make(map[string]int)
	n := 0
	counts := make([]map[string]int, len(clusters))
	sizes := make([]int, len(clusters))
	for j, members := range clusters {
		counts[j] = make(map[string]int)
		for _, u := range members {
			c, ok := gold[u]
			if !ok {
				continue
			}
			counts[j][c]++
			classTotal[c]++
			sizes[j]++
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	for j := range clusters {
		if sizes[j] == 0 {
			continue
		}
		classes := make([]string, 0, len(counts[j]))
		for c := range counts[j] {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		var e, best float64
		for _, c := range classes {
			nij := float64(counts[j][c])
			p := nij / float64(sizes[j])
			e -= p * math.Log(p)
			r := nij / float64(classTotal[c])
			if fij := 2 * p * r / (p + r); fij > best {
				best = fij
			}
		}
		w := float64(sizes[j]) / float64(n)
		entropy += w * e
		f += w * best
	}
	return entropy, f
}

// randomQuality scores a random assignment with the same cluster sizes
// as clusters: the gold-labelled pages are shuffled and dealt back out
// in the original sizes.
func randomQuality(clusters [][]string, gold map[string]string, seed int64) (entropy, f float64) {
	var all []string
	for _, members := range clusters {
		all = append(all, members...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	shuffled := make([][]string, len(clusters))
	off := 0
	for j, members := range clusters {
		shuffled[j] = all[off : off+len(members)]
		off += len(members)
	}
	return clusterQuality(shuffled, gold)
}

// probeChanges counts the probes whose co-cluster set differs between
// two classifications of the same probe pages. Cluster ids may be
// renumbered freely: probe i is unchanged exactly when, for every other
// probe j, "j shares i's cluster" has the same answer before and after.
func probeChanges(before, after []int) int {
	changed := 0
	for i := range before {
		for j := range before {
			if (before[j] == before[i]) != (after[j] == after[i]) {
				changed++
				break
			}
		}
	}
	return changed
}

// majorityClasses returns each cluster's majority gold class (ties go
// to the lexically smallest class).
func majorityClasses(clusters [][]string, gold map[string]string) []string {
	out := make([]string, len(clusters))
	for j, members := range clusters {
		counts := make(map[string]int)
		for _, u := range members {
			if c, ok := gold[u]; ok {
				counts[c]++
			}
		}
		best := -1
		for c, n := range counts {
			if n > best || (n == best && c < out[j]) {
				out[j], best = c, n
			}
		}
	}
	return out
}
