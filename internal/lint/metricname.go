package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"sort"
)

// MetricName enforces the repo's metric naming contract at every
// obs.Registry call site: names must be string constants of the dotted
// lowercase form `component.metric[.detail]` ("dfs.read.retries"), so
// dashboards, reportcheck, and the chaos-test assertions can reference them
// without guessing. It also flags the same
// constant name being emitted from two different packages — two
// components updating one counter makes the number unattributable.
//
// Dynamically built names (a handful of suffix-per-mode counters) are
// deliberate and carry //lint:ignore annotations at the call site.
var MetricName = &Analyzer{
	Name:     "metricname",
	Doc:      "metric names are dotted lowercase string constants, unique to one package",
	Run:      runMetricName,
	AfterAll: metricNameAfterAll,
}

var metricNameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)

// metricSinkPkg declares the sink type, obs.Registry: its own forwarding
// wrappers pass the caller's name straight through and are exempt.
const metricSinkPkg = modulePrefix + "/internal/obs"

// metricSinks are the Registry methods that take a metric name as their
// first argument.
var metricSinks = map[string]bool{
	"Inc": true, "Add": true, "SetGauge": true,
	"Observe": true, "ObserveDuration": true,
	// Handle resolution is a name sink too: a dynamic name resolved
	// once still lands on dashboards every time the handle records.
	"Counter": true, "Gauge": true, "Histogram": true,
}

const metricSeenKey = "metricname.seen"

// metricUse records where a constant metric name was emitted.
type metricUse struct {
	pkgPath string
	pos     token.Position
}

func runMetricName(pass *Pass) error {
	if pass.Pkg.Path() == metricSinkPkg {
		return nil
	}
	seen, _ := pass.Shared.Get(metricSeenKey).(map[string][]metricUse)
	if seen == nil {
		seen = make(map[string][]metricUse)
		pass.Shared.Put(metricSeenKey, seen)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			recv := recvType(fn)
			if recv == nil {
				return true
			}
			if !typeIs(recv, metricSinkPkg, "Registry") || !metricSinks[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.Info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(), "metric name passed to %s is not a string constant: dynamic names defeat dashboard and reportcheck lookups (annotate deliberate per-mode suffixes with //lint:ignore metricname)", fn.Name())
				return true
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRE.MatchString(name) {
				pass.Reportf(arg.Pos(), "metric name %q does not match ^[a-z0-9_]+(\\.[a-z0-9_]+)+$: use dotted lowercase component.metric form", name)
				return true
			}
			seen[name] = append(seen[name], metricUse{
				pkgPath: pass.Pkg.Path(),
				pos:     pass.Fset.Position(arg.Pos()),
			})
			return true
		})
	}
	return nil
}

// metricNameAfterAll reports constant metric names emitted from more
// than one package, at every use outside the first package seen.
func metricNameAfterAll(shared *Shared, report func(token.Position, string)) {
	seen, _ := shared.Get(metricSeenKey).(map[string][]metricUse)
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		uses := seen[name]
		first := uses[0].pkgPath
		for _, u := range uses {
			if u.pkgPath < first {
				first = u.pkgPath
			}
		}
		reported := make(map[string]bool)
		for _, u := range uses {
			if u.pkgPath == first || reported[u.pkgPath] {
				continue
			}
			reported[u.pkgPath] = true
			report(u.pos, "metric "+name+" is also emitted by "+first+": a counter owned by two packages cannot be attributed — rename one or move the emission")
		}
	}
}
