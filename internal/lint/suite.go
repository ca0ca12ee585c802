package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// enginePackages are the packages that implement solve engines — the
// targets of the ctxpoll and bulkonly disciplines.
var enginePackages = []string{
	"internal/seq",
	"internal/blocked",
	"internal/llp",
	"internal/core",
	"internal/wavefront",
	"internal/rytter",
}

// hotPackages are the kernel/tile-body packages whose loops the
// hotalloc discipline keeps allocation-free.
var hotPackages = []string{
	"internal/algebra",
	"internal/blocked",
	"internal/llp",
	"internal/core",
}

// DefaultSuite returns the full analyzer suite configured for this
// repository — what cmd/dplint and the tier-1 self-test run.
func DefaultSuite() []Analyzer {
	return []Analyzer{
		&KeyCoverage{PkgPath: "internal/wire", Struct: "Options", KeyPkgPath: "internal/serve", KeyFuncs: []string{"optionsSig"}},
		&CtxPoll{Packages: enginePackages},
		&BulkOnly{Packages: enginePackages},
		&HotAlloc{Packages: hotPackages},
		&AtomicMix{},
	}
}

// Select filters the default suite down to the named checks
// (comma-separated; "" or "all" = the full suite).
func Select(checks string) ([]Analyzer, error) {
	suite := DefaultSuite()
	if checks == "" || checks == "all" {
		return suite, nil
	}
	byName := map[string]Analyzer{}
	for _, a := range suite {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// relTo rewrites path (or a path:line anchor) relative to root when it
// lives under it.
func relTo(root, anchor string) string {
	path, line, hasLine := strings.Cut(anchor, ":")
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		path = filepath.ToSlash(rel)
	}
	if hasLine {
		return path + ":" + line
	}
	return path
}
