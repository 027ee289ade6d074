package analysis

import (
	"go/ast"
	"go/types"
)

// clockdirect guards the fake-clock chaos suites: internal/server
// injects server.Clock and internal/stream injects its `now` func
// precisely so the -race overload/degradation tests can advance time by
// hand. A direct call into package time inside those packages silently
// escapes the injected clock — the test still passes, but it is no
// longer testing the timing it claims to, and a queue wait or a backoff
// computed from the real clock under a fake one is the kind of
// skew that only shows up as flake. Both calls and bare references
// (`now: time.Now` passed as a value) are flagged; the sanctioned
// real-clock bridges carry //spatialvet:ignore clockdirect <reason>.
var analyzerClockDirect = &Analyzer{
	Name: "clockdirect",
	Doc:  "direct package-time call in a package that injects its clock",
	Run:  runClockDirect,
}

// clockFuncs are the package-time entry points that read or arm the
// real clock. Duration arithmetic (time.Duration, constants) is fine —
// only functions that observe or schedule real time are listed.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

func runClockDirect(pass *Pass) {
	inScope := false
	for _, suffix := range pass.Cfg.ClockPkgs {
		if pkgPathHasSuffix(pass.Pkg.Path(), suffix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !clockFuncs[sel.Sel.Name] {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(), "direct time.%s in a clock-injected package: the fake-clock chaos suites cannot see it — use the injected clock", sel.Sel.Name)
			return true
		})
	}
}
