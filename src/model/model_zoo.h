/**
 * @file
 * The six industry-representative recommendation models of Table I:
 * DLRM-RMC1/RMC2/RMC3 (Meta social media), MT-WnD (Google video),
 * DIN / DIEN (Alibaba e-commerce).
 *
 * Each model is built as a computation graph in both its production-scale
 * variant (tens of GB of embeddings; requires HW-aware partitioning on
 * accelerators) and the small variant used by the paper's accelerator
 * characterization (fits in 16 GB of HBM).
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/graph.h"

namespace hercules::model {

/** The six models of Table I. */
enum class ModelId { DlrmRmc1, DlrmRmc2, DlrmRmc3, MtWnd, Din, Dien };

/** Production-scale vs. small (GPU-resident) configuration. */
enum class Variant { Prod, Small };

/** @return all six model ids in Table I order. */
const std::vector<ModelId>& allModels();

/** @return canonical display name, e.g. "DLRM-RMC1". */
const char* modelName(ModelId id);

/** Parse a model name as printed by modelName(). */
std::optional<ModelId> parseModel(const std::string& name);

/** @return the service category from Table I, e.g. "Social Media". */
const char* modelService(ModelId id);

/**
 * @return the SLA latency target (ms) the paper's evaluation assigns to
 * this model (Fig 15 caption): RMC1 20 ms, RMC2/RMC3/DIN 50 ms,
 * DIEN/MT-WnD 100 ms.
 */
double defaultSlaMs(ModelId id);

/**
 * A recommendation model: the computation graph plus the Table I
 * metadata the benches print and the partitioner consults.
 */
struct Model
{
    ModelId id = ModelId::DlrmRmc1;
    Variant variant = Variant::Prod;
    std::string name;          ///< display name including variant
    Graph graph;               ///< the computation graph Gm

    int num_tables = 0;        ///< embedding table count
    int64_t rows_min = 0;      ///< smallest table rows
    int64_t rows_max = 0;      ///< largest table rows
    int emb_dim = 0;           ///< embedding width
    double pooling_min = 1.0;  ///< lookups per item, low
    double pooling_max = 1.0;  ///< lookups per item, high
    bool pooled = false;       ///< multi-hot Gather-and-Reduce?
    double sla_ms = 0.0;       ///< default SLA latency target

    /** @return total embedding bytes (>95% of model footprint). */
    int64_t embeddingBytes() const;

    /** @return total parameter bytes of the dense part. */
    int64_t denseParamBytes() const;

    /** @return full model footprint in bytes. */
    int64_t totalBytes() const
    { return embeddingBytes() + denseParamBytes(); }
};

/**
 * Build a model by id/variant.
 *
 * Table rows are spread geometrically between rows_min and rows_max so
 * that table-size heterogeneity (and thus hot-split behaviour) matches
 * the production spread described in Table I.
 */
Model buildModel(ModelId id, Variant variant = Variant::Prod);

}  // namespace hercules::model
