#include "sim/system.hh"

namespace rest::sim
{

namespace
{

std::vector<isa::Program>
onlyProgram(isa::Program program)
{
    std::vector<isa::Program> programs;
    programs.push_back(std::move(program));
    return programs;
}

MultiCoreConfig
oneCore(const SystemConfig &cfg)
{
    MultiCoreConfig mc;
    mc.base = cfg;
    return mc;
}

} // namespace

System::System(isa::Program program, const SystemConfig &cfg)
    : MultiCoreSystem(onlyProgram(std::move(program)), oneCore(cfg))
{
}

SystemResult
System::run()
{
    const MultiCoreResult mr = MultiCoreSystem::run();
    SystemResult res;
    res.run = mr.cores[0];
    res.instrumentation = mr.instrumentation[0];
    res.fastFunctional = mr.fastFunctional;
    res.sampled = config().exec.sampling.active();
    res.sampling = sampling();
    res.armsExecuted = mr.armsExecuted;
    res.disarmsExecuted = mr.disarmsExecuted;
    res.mallocCalls = mr.mallocCalls;
    res.freeCalls = mr.freeCalls;
    return res;
}

} // namespace rest::sim
