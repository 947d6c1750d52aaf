package soa

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is the UDDI-style service registry of the paper's broker
// architecture (Fig. 6): providers publish QoS-enabled service
// descriptions; the broker discovers them when serving a client
// request. It is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	byService map[string]map[string]*Document // service → provider → doc; guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byService: make(map[string]map[string]*Document)}
}

// Publish registers (or re-registers) a provider's QoS document for
// its service. The document is validated first.
func (r *Registry) Publish(d *Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	provs := r.byService[d.Service]
	if provs == nil {
		provs = make(map[string]*Document)
		r.byService[d.Service] = provs
	}
	cp := *d
	cp.Attributes = append([]Attribute(nil), d.Attributes...)
	cp.Capabilities = append([]string(nil), d.Capabilities...)
	provs[d.Provider] = &cp
	return nil
}

// Unpublish removes a provider's registration for a service.
func (r *Registry) Unpublish(service, provider string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	provs := r.byService[service]
	if provs == nil {
		return fmt.Errorf("soa: service %q not registered", service)
	}
	if _, ok := provs[provider]; !ok {
		return fmt.Errorf("soa: provider %q not registered for %q", provider, service)
	}
	delete(provs, provider)
	if len(provs) == 0 {
		delete(r.byService, service)
	}
	return nil
}

// Discover returns every registered QoS document for the service, in
// deterministic (provider-name) order. The result is a copy.
func (r *Registry) Discover(service string) []*Document {
	r.mu.RLock()
	defer r.mu.RUnlock()
	provs := r.byService[service]
	names := make([]string, 0, len(provs))
	for p := range provs {
		names = append(names, p)
	}
	sort.Strings(names)
	out := make([]*Document, 0, len(names))
	for _, p := range names {
		d := *provs[p]
		d.Attributes = append([]Attribute(nil), provs[p].Attributes...)
		d.Capabilities = append([]string(nil), provs[p].Capabilities...)
		out = append(out, &d)
	}
	return out
}

// Services returns the registered service names, sorted.
func (r *Registry) Services() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byService))
	for s := range r.byService {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of registrations.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, provs := range r.byService {
		n += len(provs)
	}
	return n
}

// Snapshot returns every registered document, across all services, in
// deterministic (service, provider) order.
func (r *Registry) Snapshot() []*Document {
	var out []*Document
	for _, svc := range r.Services() {
		out = append(out, r.Discover(svc)...)
	}
	return out
}
