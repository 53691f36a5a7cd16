#include "hw/server.h"

#include "util/logging.h"

namespace hercules::hw {

const char*
serverTypeName(ServerType t)
{
    switch (t) {
      case ServerType::T1:  return "T1";
      case ServerType::T2:  return "T2";
      case ServerType::T3:  return "T3";
      case ServerType::T4:  return "T4";
      case ServerType::T5:  return "T5";
      case ServerType::T6:  return "T6";
      case ServerType::T7:  return "T7";
      case ServerType::T8:  return "T8";
      case ServerType::T9:  return "T9";
      case ServerType::T10: return "T10";
    }
    panic("unknown ServerType %d", static_cast<int>(t));
}

const std::vector<ServerType>&
allServerTypes()
{
    static const std::vector<ServerType> types = {
        ServerType::T1, ServerType::T2, ServerType::T3, ServerType::T4,
        ServerType::T5, ServerType::T6, ServerType::T7, ServerType::T8,
        ServerType::T9, ServerType::T10,
    };
    return types;
}

std::optional<ServerType>
parseServerType(const std::string& name)
{
    for (ServerType t : allServerTypes())
        if (name == serverTypeName(t))
            return t;
    return std::nullopt;
}

namespace {

ServerSpec
makeServer(ServerType type, CpuSpec cpu, MemSpec mem,
           std::optional<GpuSpec> gpu, int availability)
{
    ServerSpec s;
    s.type = type;
    s.cpu = std::move(cpu);
    s.mem = std::move(mem);
    s.gpu = std::move(gpu);
    s.availability = availability;
    s.name = (s.cpu.freq_ghz > 1.9 ? "CPU-T2" : "CPU-T1");
    if (s.mem.kind == MemKind::Nmp)
        s.name += "+" + s.mem.name;
    if (s.gpu)
        s.name += "+" + std::string(
            s.gpu->name == "NVIDIA P100" ? "P100" : "V100");
    return s;
}

std::vector<ServerSpec>
buildCatalog()
{
    std::vector<ServerSpec> cat;
    cat.push_back(makeServer(ServerType::T1, cpuT1(), ddr4T1(),
                             std::nullopt, 100));
    cat.push_back(makeServer(ServerType::T2, cpuT2(), ddr4T2(),
                             std::nullopt, 100));
    cat.push_back(makeServer(ServerType::T3, cpuT2(), nmpX(2),
                             std::nullopt, 15));
    cat.push_back(makeServer(ServerType::T4, cpuT2(), nmpX(4),
                             std::nullopt, 10));
    cat.push_back(makeServer(ServerType::T5, cpuT2(), nmpX(8),
                             std::nullopt, 5));
    cat.push_back(makeServer(ServerType::T6, cpuT1(), ddr4T1(),
                             gpuP100(), 10));
    cat.push_back(makeServer(ServerType::T7, cpuT2(), ddr4T2(),
                             gpuV100(), 5));
    cat.push_back(makeServer(ServerType::T8, cpuT2(), nmpX(2),
                             gpuV100(), 6));
    cat.push_back(makeServer(ServerType::T9, cpuT2(), nmpX(4),
                             gpuV100(), 4));
    cat.push_back(makeServer(ServerType::T10, cpuT2(), nmpX(8),
                             gpuV100(), 2));
    return cat;
}

}  // namespace

const std::vector<ServerSpec>&
serverCatalog()
{
    static const std::vector<ServerSpec> cat = buildCatalog();
    return cat;
}

const ServerSpec&
serverSpec(ServerType t)
{
    for (const auto& s : serverCatalog())
        if (s.type == t)
            return s;
    panic("serverSpec: type %s missing from catalog", serverTypeName(t));
}

}  // namespace hercules::hw
