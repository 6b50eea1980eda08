package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docsHistory names identifiers the docs may mention although the code no
// longer has them: each is history, and says so where it is mentioned.
var docsHistory = map[string]string{
	"GroupCommitWindow":               "deleted: the fixed group-commit window option (DESIGN §12)",
	"ServerOptions.GroupCommitWindow": "deleted: the fixed group-commit window option (DESIGN §12)",
	"outEntry":                        "deleted: the outbox entry type before one reply path (DESIGN §17)",
	"session.markReady":               "deleted: the ready-prefix outbox (DESIGN §17)",
	"Server.attachPayloads":           "deleted: the ready-prefix outbox (DESIGN §17)",
	"stagedPayload":                   "deleted: the ready-prefix outbox (DESIGN §17)",
	"Server.serve":                    "deleted: the per-session serve loop (DESIGN §17)",
	"session.writer":                  "deleted: the per-session writer goroutine (DESIGN §17)",
	"recvLoop":                        "deleted: the client's receive goroutine, replaced by Client.deliver (DESIGN §17)",
	"fromStore":                       "deleted: an outEntry flag (DESIGN §17)",
	"rconn.Flush":                     "deleted: the flusher interface (DESIGN §17)",
	"session.async":                   "deleted: the switch between two session lifecycles (DESIGN §17)",
	"ServerOptions.HeatTopK":          "deleted: an option no caller set (DESIGN §14)",
	"ReclusterMaxMoves":               "deleted: an option no caller set, now reclusterMaxMoves (DESIGN §14)",
	"-group-commit-window":            "deleted: the fixed group-commit window flag (DESIGN §12)",
}

// goTestFlags are `go test` flags the docs name; no command registers them.
var goTestFlags = map[string]bool{"race": true, "count": true, "run": true, "bench": true}

// fileExts are the dotted names the docs use for files, not Go.
var fileExts = map[string]bool{"go": true, "md": true, "db": true, "log": true, "json": true, "yml": true, "sh": true, "txt": true}

// TestDocsNameLiveIdentifiers keeps DESIGN.md and README.md honest about
// the code: every back-quoted Go identifier they name — a mixed-case name
// like `appendAndInstall`, or a `Type.member` / `pkg.Name` / `pkg.Type.member`
// whose first part is a type or package of this tree — must exist in the
// tree's Go source, unless docsHistory lists it.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	tree := parseTree(t, ".")
	span := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^\*?([A-Za-z]\w*(?:\.[A-Za-z]\w*){0,2})(?:\(\))?$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range proseLines(string(text)) {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				n := name.FindStringSubmatch(m[1])
				if n == nil || strings.Contains(n[1], "_") || docsHistory[n[1]] != "" {
					continue
				}
				if ok, checked := tree.resolves(strings.Split(n[1], ".")); checked && !ok {
					t.Errorf("%s:%d names `%s`, which no Go source in the tree declares", doc, i+1, n[1])
				}
			}
		}
	}
}

// TestDocsNameLiveFlags keeps README.md and DESIGN.md honest about the
// commands: every `-flag` inside a back-quoted span must be registered in
// some cmd/*/main.go, unless it is a `go test` flag or docsHistory lists
// it. A span, or a piped or chained part of one, that starts with a
// command's name (`oodbbench -addr ...`, `go run ./cmd/figures -quick`,
// after any VAR=value prefix) may name only that command's flags.
func TestDocsNameLiveFlags(t *testing.T) {
	byCmd := registeredFlags(t)
	anyCmd := map[string]bool{}
	for _, flags := range byCmd {
		for f := range flags {
			anyCmd[f] = true
		}
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	part := regexp.MustCompile(`\||&&|;`)
	flagTok := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range proseLines(string(text)) {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				for _, p := range part.Split(m[1], -1) {
					known, where := anyCmd, "no command registers"
					if cmd := commandOf(p); byCmd[cmd] != nil {
						known, where = byCmd[cmd], cmd+" does not register"
					}
					for _, f := range flagTok.FindAllStringSubmatch(p, -1) {
						if !known[f[1]] && !goTestFlags[f[1]] && docsHistory["-"+f[1]] == "" {
							t.Errorf("%s:%d names `-%s`, which %s", doc, i+1, f[1], where)
						}
					}
				}
			}
		}
	}
}

// commandOf returns the command a shell fragment runs: its first word
// after any VAR=value assignments, or X for `go run ./cmd/X`.
func commandOf(fragment string) string {
	words := strings.Fields(fragment)
	for len(words) > 0 && strings.Contains(words[0], "=") {
		words = words[1:]
	}
	if len(words) >= 3 && words[0] == "go" && words[1] == "run" {
		return strings.TrimPrefix(strings.TrimSuffix(words[2], "/"), "./cmd/")
	}
	if len(words) == 0 {
		return ""
	}
	return words[0]
}

// registeredFlags returns, per command, the name of every flag it
// registers: the string literal among the first two arguments of a call
// on the flag package or on a FlagSet the file makes with flag.NewFlagSet
// (flag.Int("name", ...), fs.IntVar(&v, "name", ...)).
func registeredFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	byCmd := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		// Source order: a FlagSet's assignment comes before its calls.
		recvs := map[string]bool{"flag": true}
		names := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if method, _ := flagCall(n.Rhs[0], recvs); method == "NewFlagSet" {
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							recvs[id.Name] = true
						}
					}
				}
			case *ast.CallExpr:
				method, args := flagCall(n, recvs)
				if method == "" || method == "NewFlagSet" {
					return true
				}
				for _, a := range args[:min(2, len(args))] {
					if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						names[name] = true
						break
					}
				}
			}
			return true
		})
		if len(names) == 0 {
			t.Fatalf("found no flag registrations in %s", path)
		}
		byCmd[filepath.Base(filepath.Dir(path))] = names
	}
	return byCmd
}

// flagCall returns the method name and arguments of e if it is a call on
// one of recvs, or "".
func flagCall(e ast.Node, recvs map[string]bool) (string, []ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || !recvs[recv.Name] {
		return "", nil
	}
	return sel.Sel.Name, call.Args
}

// proseLines returns text's lines with fenced code blocks blanked, so line
// numbers stay true.
func proseLines(text string) []string {
	lines := strings.Split(text, "\n")
	inFence := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			inFence = !inFence
			lines[i] = ""
		} else if inFence {
			lines[i] = ""
		}
	}
	return lines
}

// goTree is what the docs may name: every identifier in the source, the
// members (fields and methods) of every named type, and every package's
// top-level declarations.
type goTree struct {
	idents   map[string]bool
	members  map[string]map[string]bool // type name -> fields and methods
	embedded map[string][]string        // type name -> embedded type names
	pkgs     map[string]map[string]bool // package name -> top-level names
}

func parseTree(t *testing.T, root string) *goTree {
	t.Helper()
	tree := &goTree{idents: map[string]bool{}, members: map[string]map[string]bool{},
		embedded: map[string][]string{}, pkgs: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if tree.members[typ] == nil {
			tree.members[typ] = map[string]bool{}
		}
		tree.members[typ][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top := tree.pkgs[f.Name.Name]
		if top == nil {
			top = map[string]bool{}
			tree.pkgs[f.Name.Name] = top
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				tree.idents[n.Name] = true
			case *ast.TypeSpec:
				var fields *ast.FieldList
				switch typ := n.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				if fields != nil {
					for _, fld := range fields.List {
						for _, nm := range fld.Names {
							member(n.Name.Name, nm.Name)
						}
						if len(fld.Names) == 0 { // embedded: named by its type
							if id := typeName(fld.Type); id != "" {
								member(n.Name.Name, id)
								tree.embedded[n.Name.Name] = append(tree.embedded[n.Name.Name], id)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && len(n.Recv.List) > 0 {
					member(typeName(n.Recv.List[0].Type), n.Name.Name)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						top[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, nm := range spec.Names {
							top[nm.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// typeName strips pointers, type arguments and package qualifiers.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// resolves reports whether the tree declares the dotted name parts, and
// whether the name is Go-shaped enough to check at all: one mixed-case
// word, or a path whose head is a package or type of the tree (file names
// like relocs.db and fields of local variables like c.mu are not).
func (g *goTree) resolves(parts []string) (ok, checked bool) {
	if fileExts[parts[len(parts)-1]] {
		return false, false
	}
	if len(parts) == 1 {
		w := parts[0]
		if !strings.ContainsFunc(w, unicode.IsUpper) || !strings.ContainsFunc(w, unicode.IsLower) {
			return false, false
		}
		return g.idents[w], true
	}
	if top, isPkg := g.pkgs[parts[0]]; isPkg && parts[0] != "main" {
		if !top[parts[1]] {
			return false, true
		}
		parts = parts[1:]
		if len(parts) == 1 {
			return true, true
		}
	}
	if len(parts) != 2 {
		return false, false
	}
	if _, isType := g.members[parts[0]]; !isType {
		return false, false
	}
	return g.hasMember(parts[0], parts[1], 0), true
}

// hasMember reports whether typ has member name, directly or promoted
// from an embedded type.
func (g *goTree) hasMember(typ, name string, depth int) bool {
	if g.members[typ][name] {
		return true
	}
	for _, e := range g.embedded[typ] {
		if depth < 4 && g.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

// TestChangesEntriesBounded keeps CHANGES.md a log one can scan: from PR
// 32 on, each entry is one paragraph of at most 1536 bytes, with no
// "- PR N," sub-bullets under it.
func TestChangesEntriesBounded(t *testing.T) {
	const firstBounded, maxBytes = 32, 1536
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^(- )?PR (\d+)[:,]`)
	pr, at, size := 0, 0, 0 // the paragraph being measured: its PR, first line, bytes
	end := func() {
		if pr >= firstBounded && size > maxBytes {
			t.Errorf("CHANGES.md:%d: the PR %d entry is %d bytes, over %d", at, pr, size, maxBytes)
		}
		pr, size = 0, 0
	}
	for i, line := range strings.Split(string(text), "\n") {
		m := entry.FindStringSubmatch(line)
		switch {
		case m == nil && line == "":
			end()
		case m == nil:
			if pr > 0 {
				size += 1 + len(line)
			}
		default:
			end()
			n, _ := strconv.Atoi(m[2])
			if m[1] != "" {
				if n >= firstBounded {
					t.Errorf("CHANGES.md:%d: a \"- PR %d,\" sub-bullet; fold it into the entry", i+1, n)
				}
				continue
			}
			pr, at, size = n, i+1, len(line)
		}
	}
	end()
}
