package soa

import (
	"strings"
	"sync"
	"testing"

	"softsoa/internal/core"
)

func sampleDoc() *Document {
	return &Document{
		Service:  "photo-edit",
		Provider: "acme",
		Region:   "eu",
		Attributes: []Attribute{
			{Name: "uptime", Metric: MetricReliability, Base: 80, PerUnit: 5, Resource: "processors", MaxUnits: 4},
			{Name: "fee", Metric: MetricCost, Base: 10, PerUnit: 2, Resource: "processors", MaxUnits: 4},
		},
	}
}

func TestDocumentXMLRoundTrip(t *testing.T) {
	d := sampleDoc()
	data, err := d.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `service="photo-edit"`) {
		t.Errorf("rendered XML missing service attr:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Provider != "acme" || back.Region != "eu" || len(back.Attributes) != 2 {
		t.Errorf("roundtrip mismatch: %+v", back)
	}
	if back.Attributes[0].PerUnit != 5 {
		t.Errorf("attribute perUnit = %v", back.Attributes[0].PerUnit)
	}
}

func TestDocumentValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Document)
	}{
		{"no service", func(d *Document) { d.Service = "" }},
		{"no provider", func(d *Document) { d.Provider = "" }},
		{"no attributes", func(d *Document) { d.Attributes = nil }},
		{"bad metric", func(d *Document) { d.Attributes[0].Metric = "latency" }},
		{"no resource", func(d *Document) { d.Attributes[0].Resource = "" }},
		{"negative units", func(d *Document) { d.Attributes[0].MaxUnits = -1 }},
	}
	for _, tc := range cases {
		d := sampleDoc()
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := sampleDoc().Validate(); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("<qos")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Parse([]byte("<qos/>")); err == nil {
		t.Error("expected validation error for empty doc")
	}
}

// TestPaperReliabilityExample pins the paper's motivating statement:
// "the reliability is equal to 80% plus 5% for each other processor
// used to execute the service" — a soft constraint with the 5x+80
// polynomial.
func TestPaperReliabilityExample(t *testing.T) {
	attr := Attribute{
		Name: "uptime", Metric: MetricReliability,
		Base: 80, PerUnit: 5, Resource: "processors", MaxUnits: 4,
	}
	sr, err := SemiringFor(MetricReliability)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSpace[float64](sr)
	x := s.AddVariable("processors", attr.ResourceDomain())
	c, err := attr.ToConstraint(s, x)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"0": 0.80, "1": 0.85, "2": 0.90, "3": 0.95, "4": 1.0}
	for label, w := range want {
		if got := c.AtLabels(label); got != w {
			t.Errorf("reliability(x=%s) = %v, want %v", label, got, w)
		}
	}
	// Best level: 100% at 4 processors.
	if got := core.Blevel(c); got != 1 {
		t.Errorf("blevel = %v, want 1", got)
	}
}

func TestToConstraintClamps(t *testing.T) {
	sr, _ := SemiringFor(MetricReliability)
	s := core.NewSpace[float64](sr)
	x := s.AddVariable("x", core.IntDomain(0, 10))
	over := Attribute{Metric: MetricReliability, Base: 90, PerUnit: 5, Resource: "x", MaxUnits: 10}
	c, err := over.ToConstraint(s, x)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AtLabels("10"); got != 1 {
		t.Errorf("value = %v, want clamped 1", got)
	}
	neg := Attribute{Metric: MetricCost, Base: 5, PerUnit: -3, Resource: "x", MaxUnits: 10}
	cc, err := neg.ToConstraint(s, x)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.AtLabels("10"); got != 0 {
		t.Errorf("cost = %v, want clamped 0", got)
	}
}

func TestToConstraintErrors(t *testing.T) {
	sr, _ := SemiringFor(MetricCost)
	s := core.NewSpace[float64](sr)
	attr := Attribute{Metric: MetricCost, Resource: "x", MaxUnits: 2}
	if _, err := attr.ToConstraint(s, "x"); err == nil {
		t.Error("undeclared resource variable should fail")
	}
	s.AddVariable("x", core.IntDomain(0, 2))
	bad := Attribute{Metric: "nope", Resource: "x"}
	if _, err := bad.ToConstraint(s, "x"); err == nil {
		t.Error("bad metric should fail")
	}
}

func TestSemiringFor(t *testing.T) {
	for _, m := range []Metric{MetricCost, MetricReliability, MetricPreference} {
		sr, err := SemiringFor(m)
		if err != nil || sr == nil {
			t.Errorf("SemiringFor(%s): %v", m, err)
		}
	}
	if _, err := SemiringFor("latency"); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestRegistryPublishDiscover(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(sampleDoc()); err != nil {
		t.Fatal(err)
	}
	d2 := sampleDoc()
	d2.Provider = "bmce"
	if err := r.Publish(d2); err != nil {
		t.Fatal(err)
	}
	docs := r.Discover("photo-edit")
	if len(docs) != 2 {
		t.Fatalf("discovered %d docs, want 2", len(docs))
	}
	if docs[0].Provider != "acme" || docs[1].Provider != "bmce" {
		t.Errorf("providers not in deterministic order: %s, %s", docs[0].Provider, docs[1].Provider)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if svcs := r.Services(); len(svcs) != 1 || svcs[0] != "photo-edit" {
		t.Errorf("services = %v", svcs)
	}
	// Re-publishing replaces.
	d3 := sampleDoc()
	d3.Region = "us"
	if err := r.Publish(d3); err != nil {
		t.Fatal(err)
	}
	if got := r.Discover("photo-edit")[0].Region; got != "us" {
		t.Errorf("re-publish did not replace: region = %q", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len after replace = %d", r.Len())
	}
}

func TestRegistryUnpublish(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(sampleDoc()); err != nil {
		t.Fatal(err)
	}
	if err := r.Unpublish("photo-edit", "acme"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || len(r.Services()) != 0 {
		t.Error("unpublish did not remove")
	}
	if err := r.Unpublish("photo-edit", "acme"); err == nil {
		t.Error("double unpublish should fail")
	}
	if err := r.Unpublish("nope", "acme"); err == nil {
		t.Error("unknown service should fail")
	}
}

func TestRegistryPublishInvalid(t *testing.T) {
	r := NewRegistry()
	bad := sampleDoc()
	bad.Service = ""
	if err := r.Publish(bad); err == nil {
		t.Error("invalid doc should not publish")
	}
}

func TestRegistryDiscoverReturnsCopies(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(sampleDoc()); err != nil {
		t.Fatal(err)
	}
	docs := r.Discover("photo-edit")
	docs[0].Attributes[0].Base = 0
	docs[0].Provider = "mutated"
	again := r.Discover("photo-edit")
	if again[0].Attributes[0].Base != 80 || again[0].Provider != "acme" {
		t.Error("Discover must return copies, not shared state")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := sampleDoc()
			d.Provider = string(rune('a' + i))
			for j := 0; j < 50; j++ {
				if err := r.Publish(d); err != nil {
					t.Error(err)
					return
				}
				r.Discover("photo-edit")
				r.Services()
				r.Len()
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Errorf("Len = %d, want 8", r.Len())
	}
}

func TestSLAXMLRoundTrip(t *testing.T) {
	sla := &SLA{
		Service:     "photo-edit",
		Client:      "shop",
		Providers:   []string{"acme"},
		Metric:      MetricCost,
		AgreedLevel: 12.5,
		Resources:   []ResourceBinding{{Name: "processors", Units: 2}},
	}
	data, err := sla.Render()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSLA(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.AgreedLevel != 12.5 || len(back.Providers) != 1 || back.Resources[0].Units != 2 {
		t.Errorf("roundtrip mismatch: %+v", back)
	}
	if _, err := ParseSLA([]byte("not xml")); err == nil {
		t.Error("expected parse error")
	}
}

func TestRegistryCopiesCapabilities(t *testing.T) {
	r := NewRegistry()
	d := sampleDoc()
	d.Capabilities = []string{"http-auth", "gzip"}
	if err := r.Publish(d); err != nil {
		t.Fatal(err)
	}
	d.Capabilities[0] = "mutated"
	got := r.Discover("photo-edit")[0]
	if got.Capabilities[0] != "http-auth" {
		t.Error("Publish must copy capabilities")
	}
	got.Capabilities[1] = "mutated"
	if r.Discover("photo-edit")[0].Capabilities[1] != "gzip" {
		t.Error("Discover must copy capabilities")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	d1 := sampleDoc()
	d1.Capabilities = []string{"gzip"}
	d2 := sampleDoc()
	d2.Provider = "other"
	d2.Service = "print"
	d3 := sampleDoc()
	d3.Provider = "beta"
	for _, d := range []*Document{d2, d3, d1} {
		if err := r.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	var got []string
	for _, d := range snap {
		got = append(got, d.Service+"/"+d.Provider)
	}
	want := []string{"photo-edit/acme", "photo-edit/beta", "print/other"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order %v, want %v", got, want)
	}
	if len(snap[0].Capabilities) != 1 || snap[0].Capabilities[0] != "gzip" {
		t.Errorf("capabilities lost: %+v", snap[0].Capabilities)
	}
	if len(snap[0].Attributes) != 2 {
		t.Errorf("attributes lost: %+v", snap[0].Attributes)
	}
	snap[0].Capabilities[0] = "poison"
	if r.Discover("photo-edit")[0].Capabilities[0] != "gzip" {
		t.Error("Snapshot must copy documents")
	}
}

func TestDowntimeMetric(t *testing.T) {
	if !MetricDowntime.Valid() {
		t.Fatal("downtime must be a valid metric")
	}
	sr, err := SemiringFor(MetricDowntime)
	if err != nil {
		t.Fatal(err)
	}
	// Downtime accumulates: combining 2h and 3h of expected downtime
	// gives 5h, and less downtime is better.
	if got := sr.Times(2, 3); got != 5 {
		t.Errorf("combined downtime = %v, want 5", got)
	}
	if !sr.Leq(5, 2) {
		t.Error("2h downtime must be better than 5h")
	}
	s := core.NewSpace[float64](sr)
	x := s.AddVariable("redundancy", core.IntDomain(0, 3))
	attr := Attribute{
		Name: "downtime", Metric: MetricDowntime,
		Base: 8, PerUnit: -2, Resource: "redundancy", MaxUnits: 3,
	}
	c, err := attr.ToConstraint(s, x)
	if err != nil {
		t.Fatal(err)
	}
	// 8h baseline minus 2h per redundant replica, floored at 0.
	if got := c.AtLabels("0"); got != 8 {
		t.Errorf("downtime(0) = %v", got)
	}
	if got := c.AtLabels("3"); got != 2 {
		t.Errorf("downtime(3) = %v", got)
	}
	if got := core.Blevel(c); got != 2 {
		t.Errorf("best downtime = %v", got)
	}
}
