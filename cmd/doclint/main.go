// Command doclint fails when a package exports an undocumented
// identifier. It is the `make doclint` gate behind the documentation
// guarantee: every exported type, function, method, constant, variable,
// struct field, and interface method in the audited packages carries a
// doc comment (a block comment on a const/var group covers its members;
// a trailing line comment counts for fields and grouped values).
//
// Usage:
//
//	doclint [package-dir ...]
//
// With no arguments it audits the documented API surface: the root edc
// package, internal/core, internal/metrics, internal/obs,
// internal/maint, and internal/dedup. Test files are ignored. Exits
// non-zero listing every offender as file:line: identifier.
//
// The no-argument run also checks the other direction: every
// `edc.Identifier` that README.md, DESIGN.md, OBSERVABILITY.md or
// EXPERIMENTS.md writes in a code span or a code fence must be an
// exported name of the root package, and every unqualified WithX or
// WithoutX there must name an exported func or method declared in a
// non-test file of the module, so deleting or renaming one cannot leave
// the documents citing it.
//
// It also holds OBSERVABILITY.md's counter table to the collector's
// counter families (internal/obs.Families): one row per family, with
// the family's labels and its help text as the meaning, word for word.
//
// It also holds the line budget: sizes.txt lists the wc -l line count of
// the non-test .go files of every package directory, and of DESIGN.md,
// then the number of options: the root package's exported With* funcs.
// When any count differs from the tree, the run fails and prints the
// fresh file. There is no flag to rewrite it: the edit to sizes.txt is
// how a change in size shows up for review.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"edc/internal/obs"
)

// defaultDirs is the audited API surface when no arguments are given.
var defaultDirs = []string{".", "internal/core", "internal/metrics", "internal/obs", "internal/maint", "internal/dedup"}

// docFiles are the documents whose edc.Identifier and bare WithX
// mentions must resolve against the code.
var docFiles = []string{"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md"}

// countersDoc is the document whose counter table lists obs.Families.
const countersDoc = "OBSERVABILITY.md"

// sizesFile is the committed line budget.
const sizesFile = "sizes.txt"

func main() {
	dirs := os.Args[1:]
	var bad []string
	if len(dirs) == 0 {
		dirs = defaultDirs
		stale, err := lintDocs(".", docFiles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		bad = stale
		doc, err := os.ReadFile(countersDoc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, lintCounters(countersDoc, doc, obs.Families())...)
		fresh, err := sizes(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		// A missing file differs like any other.
		if old, _ := os.ReadFile(sizesFile); !bytes.Equal(old, fresh) {
			fmt.Printf("%s differs from the tree; the fresh file:\n%s", sizesFile, fresh)
			bad = append(bad, sizesFile+": line or option counts differ")
		}
	}
	for _, dir := range dirs {
		offenders, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, offenders...)
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		for _, b := range bad {
			fmt.Println(b)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported identifier(s), stale mention(s) or changed line count(s)\n", len(bad))
		os.Exit(1)
	}
}

// mention matches a package-qualified exported name of the root package.
var mention = regexp.MustCompile(`\bedc\.([A-Z]\w*)`)

// bare matches an unqualified option-style name: WithX or WithoutX not
// preceded by a word character or a package or receiver qualifier.
var bare = regexp.MustCompile(`(?:^|[^\w.])(With(?:out)?[A-Z]\w*)`)

// lintDocs returns, as file:line entries, every edc.Identifier a
// document under root writes as code — inside a ``` fence or an inline
// code span — that the root package does not export, and every bare
// WithX there that no non-test file of the module declares as an
// exported func or method.
func lintDocs(root string, files []string) ([]string, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	exported := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for name, obj := range file.Scope.Objects {
				if ast.IsExported(name) && obj.Kind != ast.Bad {
					exported[name] = true
				}
			}
		}
	}
	funcs, err := moduleFuncs(root)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, name := range files {
		text, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			code := line
			if !fenced {
				// Outside a fence only the inline spans are code: the odd
				// pieces of the line cut at backticks.
				spans := strings.Split(line, "`")
				code = ""
				for j := 1; j < len(spans); j += 2 {
					code += spans[j] + " "
				}
			}
			for _, m := range mention.FindAllStringSubmatch(code, -1) {
				if !exported[m[1]] {
					bad = append(bad, fmt.Sprintf("%s:%d: %s is not exported by package edc", name, i+1, m[0]))
				}
			}
			for _, m := range bare.FindAllStringSubmatch(code, -1) {
				if !funcs[m[1]] {
					bad = append(bad, fmt.Sprintf("%s:%d: %s is not an exported func or method of the module", name, i+1, m[1]))
				}
			}
		}
	}
	return bad, nil
}

// lintCounters returns, as file:line entries, every row of the counter
// table in text (the rows under "| counter | labels | meaning |") whose
// labels or meaning differ from the family of that name in fams, or that
// names no family, and every family the table does not list.
func lintCounters(name string, text []byte, fams []obs.Family) []string {
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	var bad []string
	listed := make(map[string]bool)
	inTable := false
	for i, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.HasPrefix(line, "| counter | labels | meaning |"):
			inTable = true
			continue
		case !inTable || strings.HasPrefix(line, "|---"):
			continue
		case !strings.HasPrefix(line, "|"):
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		fam := strings.Trim(cells[0], "`")
		var labels []string
		if len(cells) > 1 && cells[1] != "—" {
			for _, l := range strings.Split(cells[1], ",") {
				labels = append(labels, strings.Trim(strings.TrimSpace(l), "`"))
			}
		}
		meaning := ""
		if len(cells) > 2 {
			meaning = cells[2]
		}
		listed[fam] = true
		f, ok := byName[fam]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s:%d: %s is not a counter family of internal/obs", name, i+1, fam))
		case !slices.Equal(labels, f.Labels) || meaning != f.Help:
			bad = append(bad, fmt.Sprintf("%s:%d: %s reads labels %q, meaning %q; the code declares %q, %q",
				name, i+1, fam, labels, meaning, f.Labels, f.Help))
		}
	}
	for _, f := range fams {
		if !listed[f.Name] {
			bad = append(bad, fmt.Sprintf("%s: the counter table does not list %s", name, f.Name))
		}
	}
	return bad
}

// moduleFuncs returns the names of the exported funcs and methods
// declared in the non-test .go files under root.
func moduleFuncs(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := walkGo(root, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

// walkGo calls fn with the path of every non-test .go file under root,
// skipping hidden and testdata directories.
func walkGo(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		return fn(path)
	})
}

// sizes renders the line budget of the tree at root: one "path lines"
// line per package directory (its non-test .go files; hidden and
// testdata directories skipped), then DESIGN.md's, each counted as
// wc -l counts: newline bytes; last, "options N", the exported With*
// funcs (WithoutX too) of the package at root.
func sizes(root string) ([]byte, error) {
	count := func(path string) (int, error) {
		b, err := os.ReadFile(path)
		return bytes.Count(b, []byte("\n")), err
	}
	lines := map[string]int{}
	err := walkGo(root, func(path string) error {
		n, err := count(path)
		lines[filepath.ToSlash(filepath.Dir(path))] += n
		return err
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(lines))
	for dir := range lines {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var b bytes.Buffer
	b.WriteString("# Line budget, checked by go run ./cmd/doclint: non-test Go lines per\n" +
		"# package directory, then DESIGN.md's lines (wc -l), then the root\n" +
		"# package's exported With* options.\n")
	for _, dir := range dirs {
		fmt.Fprintf(&b, "%s %d\n", dir, lines[dir])
	}
	n, err := count(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "DESIGN.md %d\n", n)
	opts, err := options(root)
	fmt.Fprintf(&b, "options %d\n", opts)
	return b.Bytes(), err
}

// options counts the exported package-level funcs named With* declared
// in the non-test .go files of the package at root.
func options(root string) (int, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	n := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() &&
					strings.HasPrefix(fd.Name.Name, "With") {
					n++
				}
			}
		}
	}
	return n, err
}

// lintDir parses one package directory and returns its offenders.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var bad []string
	flag := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		bad = append(bad, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		exportedTypes := collectExportedTypes(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					lintFunc(d, exportedTypes, flag)
				case *ast.GenDecl:
					lintGen(fset, d, flag)
				}
			}
		}
	}
	return bad, nil
}

// collectExportedTypes records the package's exported type names so
// methods on unexported types (unreachable API) are skipped.
func collectExportedTypes(pkg *ast.Package) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

// lintFunc flags exported functions, and exported methods whose
// receiver type is itself exported, that carry no doc comment.
func lintFunc(d *ast.FuncDecl, exportedTypes map[string]bool, flag func(token.Pos, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind := "func"
	if d.Recv != nil {
		recv := receiverType(d.Recv)
		if !exportedTypes[recv] {
			return
		}
		kind = "method " + recv + "."
	} else {
		kind += " "
	}
	flag(d.Pos(), kind+d.Name.Name)
}

// receiverType unwraps the receiver's base type name.
func receiverType(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if g, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lintGen flags undocumented exported consts, vars, and types. A doc
// comment on the grouped declaration covers every spec in the group;
// per-spec doc or trailing line comments also count. Exported struct
// fields and interface methods inside a type must each be documented,
// where a documented member also covers the undocumented members
// immediately below it (the group-heading idiom: coverage stops at the
// first blank line).
func lintGen(fset *token.FileSet, d *ast.GenDecl, flag func(token.Pos, string)) {
	groupDoc := d.Doc != nil
	covered := newCoverage(fset)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			documented := groupDoc || covered.check(s, s.Doc != nil || s.Comment != nil)
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					flag(name.Pos(), d.Tok.String()+" "+name.Name)
				}
			}
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && s.Doc == nil && s.Comment == nil {
				flag(s.Name.Pos(), "type "+s.Name.Name)
			}
			lintTypeBody(fset, s, flag)
		}
	}
}

// coverage tracks group-heading propagation: a documented member covers
// the undocumented members on the immediately following lines, until a
// blank line breaks the group.
type coverage struct {
	fset    *token.FileSet
	covered bool
	lastEnd int
}

func newCoverage(fset *token.FileSet) *coverage {
	return &coverage{fset: fset, lastEnd: -2}
}

// check reports whether the node at n counts as documented, given its
// own doc status, and advances the group state.
func (c *coverage) check(n ast.Node, hasDoc bool) bool {
	line := c.fset.Position(n.Pos()).Line
	adjacent := line == c.lastEnd+1
	c.lastEnd = c.fset.Position(n.End()).Line
	if hasDoc {
		c.covered = true
		return true
	}
	if !adjacent {
		c.covered = false
	}
	return c.covered
}

// lintTypeBody audits the members of an exported struct or interface.
func lintTypeBody(fset *token.FileSet, s *ast.TypeSpec, flag func(token.Pos, string)) {
	lintMembers := func(kind string, fields *ast.FieldList) {
		covered := newCoverage(fset)
		for _, f := range fields.List {
			documented := covered.check(f, f.Doc != nil || f.Comment != nil)
			for _, name := range f.Names {
				if name.IsExported() && !documented {
					flag(name.Pos(), kind+" "+s.Name.Name+"."+name.Name)
				}
			}
		}
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		lintMembers("field", t.Fields)
	case *ast.InterfaceType:
		lintMembers("interface method", t.Methods)
	}
}
