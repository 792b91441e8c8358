// Template support: a template is a scenario document carrying an extra
// top-level "params" block that declares integer-valued parameters, each
// with a finite value set. The rest of the document may reference the
// parameters as ${name} placeholders — inside graph definitions, expression
// fields (graph refs as well as round-valued integers such as "rounds",
// "window" or "n"), and check options. Expansion substitutes every binding
// combination into the body and parses the result with the ordinary strict
// scenario parser, producing the template's concrete scenario grid.
//
// A template document looks like:
//
//	{
//	  "name": "lossbound-saturation",
//	  "params": {"f": "0..4", "horizon": [3, 4]},
//	  "n": 2,
//	  "adversary": {"op": "loss-bounded", "f": "${f}"},
//	  "check": {"maxHorizon": "${horizon}"}
//	}
//
// A placeholder that is the entire JSON string ("f": "${f}") substitutes as
// a bare integer, so integer-typed spec fields can be parameterized; a
// placeholder embedded in a longer string ("S": "1->${c}") substitutes its
// decimal text. Cells are named name[p1=v1,p2=v2] with parameters in
// name order, and are enumerated in odometer order over the same ordering
// (last parameter varies fastest).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Expansion caps: a template describes work for the sweep engine, so a
// hostile or typo'd document must not be able to request an unbounded grid.
const (
	// maxTemplateParams bounds the number of declared parameters.
	maxTemplateParams = 6
	// maxParamValues bounds one parameter's value-set size (range width or
	// list length).
	maxParamValues = 64
	// maxGridCells bounds the full cross-product size.
	maxGridCells = 2048
	// maxParamMagnitude bounds parameter values; far beyond any field a
	// scenario spec accepts, but small enough that decimal substitution
	// cannot blow up document sizes.
	maxParamMagnitude = 1_000_000_000
)

// paramNameRE is the parameter-name grammar, shared by declarations and
// ${...} references.
var paramNameRE = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_]*$`)

// Param is one declared template parameter with its expanded value set, in
// declaration form order (ranges ascending, lists as written).
type Param struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// Binding is one parameter's value in a concrete grid cell.
type Binding struct {
	Param string `json:"param"`
	Value int    `json:"value"`
}

// Cell is one concrete scenario of an expanded template grid.
type Cell struct {
	// Bindings hold the cell's parameter values, in the template's
	// canonical (name-sorted) parameter order.
	Bindings []Binding
	// Scenario is the built concrete scenario; its name is the template
	// name suffixed with the bindings, e.g. "lossbound[f=2,horizon=3]".
	Scenario *Scenario
}

// Template is a parsed parameterized scenario template.
type Template struct {
	// Name and Description are copied from the document.
	Name        string
	Description string
	// Params are the declared parameters, sorted by name — the canonical
	// enumeration order of the grid (last parameter varies fastest).
	Params []Param

	// body is the decoded document tree without the params block; cells
	// substitute into deep copies of it.
	body map[string]any
}

// IsTemplate reports whether the document declares a params block — i.e.
// whether it must be parsed with ParseTemplate rather than Parse. It does
// not validate the document.
func IsTemplate(data []byte) bool {
	var probe struct {
		Params json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Params != nil
}

// ParseTemplate decodes and validates a template document: the params block
// must declare at least one parameter (use Parse for concrete scenarios),
// every declaration must be a non-empty duplicate-free integer range or
// list within the expansion caps, every ${...} reference in the body must
// resolve to a declared parameter, and every declared parameter must be
// referenced. The first grid cell is built eagerly so a structurally broken
// body fails at parse time, not at expansion time.
func ParseTemplate(data []byte) (*Template, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("template: trailing data after document")
	}
	rawParams, ok := doc["params"]
	if !ok {
		return nil, fmt.Errorf("template: missing params block (concrete scenarios go through Parse)")
	}
	delete(doc, "params")
	params, err := parseParams(data, rawParams)
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	name, _ := doc["name"].(string)
	if name == "" {
		return nil, fmt.Errorf("template: missing name")
	}
	desc, _ := doc["description"].(string)
	t := &Template{Name: name, Description: desc, Params: params, body: doc}
	if cells := t.CellCount(); cells > maxGridCells {
		return nil, fmt.Errorf("template %q: grid of %d cells exceeds the cap %d", name, cells, maxGridCells)
	}
	if err := t.checkReferences(); err != nil {
		return nil, fmt.Errorf("template %q: %w", name, err)
	}
	// Eagerly build the first cell: placeholder plumbing aside, the body
	// must be a well-formed scenario document.
	if _, err := t.cell(t.firstBinding()); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadTemplate reads and parses a template file.
func LoadTemplate(path string) (*Template, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	t, err := ParseTemplate(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// CellCount returns the size of the template's concrete scenario grid.
func (t *Template) CellCount() int {
	cells := 1
	for _, p := range t.Params {
		cells *= len(p.Values)
	}
	return cells
}

// Expand builds every concrete scenario of the grid, in canonical odometer
// order over the name-sorted parameters (last parameter varies fastest).
// Every cell is parsed by the strict scenario parser; a binding that
// produces an invalid scenario (e.g. a process count driven out of range)
// fails the whole expansion with the offending cell named in the error.
func (t *Template) Expand() ([]Cell, error) {
	out := make([]Cell, 0, t.CellCount())
	idx := make([]int, len(t.Params))
	for {
		cell, err := t.cell(idx)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
		// Advance the odometer, last parameter fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(t.Params[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// firstBinding is the all-zero odometer position.
func (t *Template) firstBinding() []int { return make([]int, len(t.Params)) }

// cell builds the concrete scenario at one odometer position.
func (t *Template) cell(idx []int) (Cell, error) {
	bind := make(map[string]int, len(t.Params))
	bindings := make([]Binding, len(t.Params))
	suffix := make([]string, len(t.Params))
	for i, p := range t.Params {
		v := p.Values[idx[i]]
		bind[p.Name] = v
		bindings[i] = Binding{Param: p.Name, Value: v}
		suffix[i] = fmt.Sprintf("%s=%d", p.Name, v)
	}
	cellName := fmt.Sprintf("%s[%s]", t.Name, strings.Join(suffix, ","))
	body, err := substitute(t.body, bind, nil)
	if err != nil {
		return Cell{}, fmt.Errorf("template cell %s: %w", cellName, err)
	}
	tree := body.(map[string]any)
	tree["name"] = cellName
	data, err := json.Marshal(tree)
	if err != nil {
		return Cell{}, fmt.Errorf("template cell %s: %w", cellName, err)
	}
	s, err := Parse(data)
	if err != nil {
		return Cell{}, fmt.Errorf("template cell %s: %w", cellName, err)
	}
	return Cell{Bindings: bindings, Scenario: s}, nil
}

// checkReferences substitutes a probe binding purely to validate the
// placeholder structure: every reference bound, no placeholder in object
// keys, and every declared parameter used somewhere in the body.
func (t *Template) checkReferences() error {
	bind := make(map[string]int, len(t.Params))
	for _, p := range t.Params {
		bind[p.Name] = p.Values[0]
	}
	used := make(map[string]bool, len(t.Params))
	if _, err := substitute(t.body, bind, used); err != nil {
		return err
	}
	for _, p := range t.Params {
		if !used[p.Name] {
			return fmt.Errorf("param %q is declared but never referenced", p.Name)
		}
	}
	return nil
}

// parseParams decodes and validates the params block. The raw document is
// re-scanned token-wise to reject duplicate parameter declarations, which
// map decoding would silently collapse.
func parseParams(doc []byte, raw any) ([]Param, error) {
	decls, ok := raw.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("params must be an object of name: range|list declarations")
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("params block declares no parameters")
	}
	if len(decls) > maxTemplateParams {
		return nil, fmt.Errorf("%d params exceed the cap %d", len(decls), maxTemplateParams)
	}
	if err := checkDuplicateParamKeys(doc); err != nil {
		return nil, err
	}
	out := make([]Param, 0, len(decls))
	for name, decl := range decls {
		if !paramNameRE.MatchString(name) {
			return nil, fmt.Errorf("invalid param name %q", name)
		}
		values, err := paramValues(decl)
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", name, err)
		}
		out = append(out, Param{Name: name, Values: values})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// paramValues expands one declaration: a "lo..hi" range string, a JSON list
// of integers, or a single integer.
func paramValues(decl any) ([]int, error) {
	switch d := decl.(type) {
	case string:
		lo, hi, err := parseRange(d)
		if err != nil {
			return nil, err
		}
		if hi-lo+1 > maxParamValues {
			return nil, fmt.Errorf("range %s spans %d values, cap %d", d, hi-lo+1, maxParamValues)
		}
		values := make([]int, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			values = append(values, v)
		}
		return values, nil
	case []any:
		if len(d) == 0 {
			return nil, fmt.Errorf("empty value list")
		}
		if len(d) > maxParamValues {
			return nil, fmt.Errorf("%d values exceed the cap %d", len(d), maxParamValues)
		}
		values := make([]int, len(d))
		seen := make(map[int]bool, len(d))
		for i, raw := range d {
			v, err := paramInt(raw)
			if err != nil {
				return nil, err
			}
			if seen[v] {
				return nil, fmt.Errorf("duplicate value %d", v)
			}
			seen[v] = true
			values[i] = v
		}
		return values, nil
	case json.Number:
		v, err := paramInt(d)
		if err != nil {
			return nil, err
		}
		return []int{v}, nil
	default:
		return nil, fmt.Errorf("declaration must be a \"lo..hi\" range, an integer list, or an integer")
	}
}

// parseRange parses "lo..hi" with lo ≤ hi.
func parseRange(s string) (lo, hi int, err error) {
	left, right, found := strings.Cut(s, "..")
	if !found {
		return 0, 0, fmt.Errorf("range %q is not of the form lo..hi", s)
	}
	if lo, err = rangeBound(left); err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", s, err)
	}
	if hi, err = rangeBound(right); err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", s, err)
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("empty range %q (lo > hi)", s)
	}
	return lo, hi, nil
}

func rangeBound(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad bound %q", s)
	}
	if v < -maxParamMagnitude || v > maxParamMagnitude {
		return 0, fmt.Errorf("bound %d out of range ±%d", v, maxParamMagnitude)
	}
	return v, nil
}

// paramInt narrows a decoded JSON value to an integer parameter value.
func paramInt(raw any) (int, error) {
	num, ok := raw.(json.Number)
	if !ok {
		return 0, fmt.Errorf("value %v is not an integer", raw)
	}
	v, err := strconv.Atoi(num.String())
	if err != nil {
		return 0, fmt.Errorf("value %v is not an integer", raw)
	}
	if v < -maxParamMagnitude || v > maxParamMagnitude {
		return 0, fmt.Errorf("value %d out of range ±%d", v, maxParamMagnitude)
	}
	return v, nil
}

// checkDuplicateParamKeys token-scans the document for params blocks:
// decoding through a map silently keeps only the last duplicate
// declaration (and only the last duplicate top-level block), which would
// make the grid depend on document order invisibly — so both a duplicated
// top-level "params" key and a duplicated name inside any params object
// are rejected.
func checkDuplicateParamKeys(doc []byte) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	if _, err := dec.Token(); err != nil { // opening {
		return err
	}
	blocks := 0
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := keyTok.(string)
		if key != "params" {
			// Skip the value wholesale.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return err
			}
			continue
		}
		blocks++
		if blocks > 1 {
			return fmt.Errorf("duplicate params block")
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		if err := scanParamsObject(raw); err != nil {
			return err
		}
	}
	return nil
}

// scanParamsObject rejects duplicate declaration names inside one params
// object (non-objects are left to parseParams' shape error).
func scanParamsObject(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	open, err := dec.Token()
	if err != nil {
		return err
	}
	if open != json.Delim('{') {
		return nil
	}
	seen := map[string]bool{}
	for dec.More() {
		nameTok, err := dec.Token()
		if err != nil {
			return err
		}
		name, _ := nameTok.(string)
		if seen[name] {
			return fmt.Errorf("duplicate param %q", name)
		}
		seen[name] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return err
		}
	}
	return nil
}

// substitute deep-copies a decoded JSON tree, replacing ${name} references
// from the binding. A string that is exactly one placeholder becomes the
// bound integer (json.Number, so integer-typed spec fields accept it); a
// placeholder inside a longer string becomes its decimal text. used, when
// non-nil, collects the referenced parameter names.
func substitute(v any, bind map[string]int, used map[string]bool) (any, error) {
	switch node := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(node))
		for k, child := range node {
			if strings.Contains(k, "${") {
				return nil, fmt.Errorf("placeholder in object key %q", k)
			}
			sub, err := substitute(child, bind, used)
			if err != nil {
				return nil, err
			}
			out[k] = sub
		}
		return out, nil
	case []any:
		out := make([]any, len(node))
		for i, child := range node {
			sub, err := substitute(child, bind, used)
			if err != nil {
				return nil, err
			}
			out[i] = sub
		}
		return out, nil
	case string:
		return substituteString(node, bind, used)
	default:
		return v, nil
	}
}

// substituteString resolves the placeholders of one string value.
func substituteString(s string, bind map[string]int, used map[string]bool) (any, error) {
	if !strings.Contains(s, "${") {
		return s, nil
	}
	var sb strings.Builder
	rest := s
	whole := true // does the string consist of exactly one placeholder?
	var only *int
	for {
		i := strings.Index(rest, "${")
		if i < 0 {
			sb.WriteString(rest)
			break
		}
		sb.WriteString(rest[:i])
		end := strings.Index(rest[i:], "}")
		if end < 0 {
			return nil, fmt.Errorf("unterminated placeholder in %q", s)
		}
		name := rest[i+2 : i+end]
		if !paramNameRE.MatchString(name) {
			return nil, fmt.Errorf("invalid placeholder ${%s} in %q", name, s)
		}
		v, ok := bind[name]
		if !ok {
			return nil, fmt.Errorf("unbound param ${%s} in %q", name, s)
		}
		if used != nil {
			used[name] = true
		}
		if i == 0 && i+end+1 == len(rest) && sb.Len() == 0 {
			only = &v
		} else {
			whole = false
		}
		sb.WriteString(strconv.Itoa(v))
		rest = rest[i+end+1:]
	}
	if whole && only != nil {
		return json.Number(strconv.Itoa(*only)), nil
	}
	return sb.String(), nil
}
