// Fixture internal package the facade fixture re-exports from.
package eng

// Engine is the fixture engine type.
type Engine struct{}

// New builds an Engine.
func New() *Engine { return &Engine{} }
