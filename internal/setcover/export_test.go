package setcover

// AscentPerNode is the per-node ascent budget, exported to the external
// tests that bound the search's Lagrangian evaluations by it.
const AscentPerNode = ascentPerNode
