// Graph (de)serialization: a compact binary CSR container plus text edge
// lists (the interchange format GraphWalker and friends consume).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace fw::graph {

/// Binary container (FWGRAPH1): magic, then offsets, neighbor IDs and
/// weights, each a count and the raw array; IDs are stored as 8-byte
/// VertexIds. A stored ID of kMaxVertices or more throws std::out_of_range.
void save_binary(const CsrGraph& graph, std::ostream& os);
CsrGraph load_binary(std::istream& is);

void save_binary_file(const CsrGraph& graph, const std::string& path);
CsrGraph load_binary_file(const std::string& path);

/// "src dst [weight]\n" per line; '#'-prefixed comment lines are skipped.
/// load_edge_list throws std::out_of_range on an ID of kMaxVertices or more.
void save_edge_list(const CsrGraph& graph, std::ostream& os);
CsrGraph load_edge_list(std::istream& is);

}  // namespace fw::graph
