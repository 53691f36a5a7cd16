/**
 * @file
 * The heterogeneous server catalog T1–T10 of Table II, with per-type
 * availability counts N1–N10 used by the cluster experiments.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/device_specs.h"

namespace hercules::hw {

/** Server architecture types of Table II. */
enum class ServerType {
    T1,   ///< CPU-T1 + DDR4
    T2,   ///< CPU-T2 + DDR4
    T3,   ///< CPU-T2 + NMPx2
    T4,   ///< CPU-T2 + NMPx4
    T5,   ///< CPU-T2 + NMPx8
    T6,   ///< CPU-T1 + DDR4 + P100
    T7,   ///< CPU-T2 + DDR4 + V100
    T8,   ///< CPU-T2 + NMPx2 + V100
    T9,   ///< CPU-T2 + NMPx4 + V100
    T10,  ///< CPU-T2 + NMPx8 + V100
};

/** @return "T1".."T10". */
const char* serverTypeName(ServerType t);

/** @return all ten server types in catalog order. */
const std::vector<ServerType>& allServerTypes();

/** Parse a type name as printed by serverTypeName(). */
std::optional<ServerType> parseServerType(const std::string& name);

/** One server architecture: CPU socket + memory + optional GPU. */
struct ServerSpec
{
    ServerType type = ServerType::T1;
    std::string name;          ///< descriptive, e.g. "CPU-T2+NMPx2+V100"
    CpuSpec cpu;
    MemSpec mem;
    std::optional<GpuSpec> gpu;
    int availability = 0;      ///< Nh servers of this type in the fleet

    /** @return true when a discrete accelerator is present. */
    bool hasGpu() const { return gpu.has_value(); }

    /** @return true when the memory subsystem is NMP-capable. */
    bool hasNmp() const { return mem.kind == MemKind::Nmp; }

    /** @return sum of component TDPs (absolute power ceiling). */
    double maxPowerW() const
    {
        return cpu.tdp_w + mem.tdp_w + (gpu ? gpu->tdp_w : 0.0);
    }
};

/** @return the full T1–T10 catalog with Table II availabilities. */
const std::vector<ServerSpec>& serverCatalog();

/** @return the spec of a given type (from the catalog). */
const ServerSpec& serverSpec(ServerType t);

}  // namespace hercules::hw
