package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// The registry is process-wide and safe for concurrent use; built-in
// scenarios register at init, and tests or embedding programs may add
// their own.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]*registered
}{byName: map[string]*registered{}}

// registered is one registry entry. sc is the registry's private clone and
// is never mutated, so its fingerprint is computed at most once, on the
// first FingerprintOf — not at Register, which would put the hash of every
// family member on the cost of enabling the family.
type registered struct {
	sc   Scenario
	once sync.Once
	fp   string
}

// Register validates s and adds it to the registry. Duplicate names are an
// error: a scenario is an identity, not a setting to silently overwrite.
func Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", s.Name)
	}
	registry.byName[s.Name] = &registered{sc: s.clone()}
	return nil
}

// MustRegister is Register for init-time use.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario. The copy is deep: mutating it (e.g.
// to derive a variant) never touches the registry.
func Lookup(name string) (Scenario, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	r, ok := registry.byName[name]
	if !ok {
		return Scenario{}, false
	}
	return r.sc.clone(), true
}

// Has reports whether a scenario is registered under name, without the
// deep copy Lookup makes.
func Has(name string) bool {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	_, ok := registry.byName[name]
	return ok
}

// FingerprintOf returns the Fingerprint of the named registered scenario.
// The hash is computed the first time a name is asked for and stored with
// the entry, so per-job callers pay a map read instead of a SHA-256 over
// the canonical encoding.
func FingerprintOf(name string) (string, bool) {
	registry.mu.RLock()
	r, ok := registry.byName[name]
	registry.mu.RUnlock()
	if !ok {
		return "", false
	}
	r.once.Do(func() { r.fp = r.sc.Fingerprint() })
	return r.fp, true
}

// List returns every registered scenario sorted by name, so listings and
// sweeps are deterministic. Like Lookup, the copies are deep.
func List() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.byName))
	for _, r := range registry.byName {
		out = append(out, r.sc.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered names.
func Names() []string {
	scs := List()
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name
	}
	return names
}
