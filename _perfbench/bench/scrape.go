package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of /v1/metrics: every sample keyed by its
// series as printed, e.g. `cache_hits_total{tier="tables"}`.
type scrape map[string]float64

// scrapeMetrics reads the broker's Prometheus exposition.
func scrapeMetrics(ctx context.Context, cl *http.Client, addr string) (scrape, error) {
	status, body, err := get(ctx, cl, "http://"+addr+"/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", status)
	}
	return parseExposition(body)
}

func parseExposition(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose labels contain all the
// given `name="value"` pairs.
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after minus before for one family and label filter.
func delta(before, after scrape, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}
