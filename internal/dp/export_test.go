package dp

import (
	"context"

	"puffer/internal/netlist"
)

// RefineReference exposes the reference refinement to the external tests.
func RefineReference(d *netlist.Design, cfg Config) (Result, error) {
	return refineReference(context.Background(), d, cfg)
}
