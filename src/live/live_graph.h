// The live service's mutable topology is the graph layer's one mutable
// adjacency (graph/mutable_graph.h); this alias keeps the live
// vocabulary.
#pragma once

#include "graph/mutable_graph.h"

namespace kcore::live {

using LiveGraph = graph::MutableGraph;

}  // namespace kcore::live
