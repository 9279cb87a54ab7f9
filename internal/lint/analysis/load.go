package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready to be handed
// to analyzers as a Pass.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. Imports —
// standard library and in-module alike — resolve through the
// compiler-independent "source" importer, which type-checks
// dependencies from their sources (the toolchain ships no export
// data for a dependency-free module, so source checking is the only
// importer that works everywhere, including fresh containers).
// One Loader shares an importer instance, so dependency packages are
// checked once and cached across Check calls.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader with a fresh FileSet and import cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Check parses the named files and type-checks them as one package
// under importPath. Comments are always parsed — the analyzers read
// annotation markers from them.
func (l *Loader) Check(importPath string, filenames []string) (*Package, error) {
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: no files for %s", importPath)
	}
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	return &Package{Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// CheckDir type-checks every non-test .go file in dir that the default
// build context selects (so of a race/!race or amd64/noasm file pair,
// exactly one is loaded) as one package. analysistest loads fixture
// directories through it; cmd/spmvlint resolves real packages via
// `go list` instead and calls Check directly.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return l.Check(importPath, files)
}

// Run applies one analyzer to the package and returns its findings
// sorted by position.
func (p *Package) Run(a *Analyzer, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts()
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Pkg,
		TypesInfo: p.Info,
		Facts:     facts,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
