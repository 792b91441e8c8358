// Fixture facade: the facadesync analyzer runs only on the package with
// import path "topocon" and checks that each exported symbol re-exports an
// internal one.
package topocon

import "topocon/internal/eng"

// Engine re-exports the internal engine type.
type Engine = eng.Engine

// NewEngine re-exports the constructor.
var NewEngine = eng.New

// Orphan references nothing internal.
var Orphan = 42 // want `facade symbol Orphan does not reference any internal symbol`

//topocon:allow facadesync -- fixture: justified facade-local constant
const Version = "v1"
