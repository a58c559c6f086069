#include "hir/program.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {
namespace hir {

ArrayId
Program::findArray(const std::string &name) const
{
    for (ArrayId i = 0; i < _arrays.size(); ++i)
        if (_arrays[i].name == name)
            return i;
    fatal("no array named '%s'", name);
}

Range
Program::paramRange(const std::string &name) const
{
    auto it = _paramRanges.find(name);
    if (it != _paramRanges.end())
        return it->second;
    auto v = _params.lookup(name);
    hscd_assert(v.has_value(), "no param named '%s'", name);
    return Range{*v, *v};
}

ProcIndex
Program::findProcedure(const std::string &name) const
{
    for (ProcIndex i = 0; i < _procs.size(); ++i)
        if (_procs[i].name == name)
            return i;
    fatal("no procedure named '%s'", name);
}

void
Program::layout(Addr align)
{
    hscd_assert(isPowerOf2(align), "alignment must be a power of two");
    Addr next = align; // keep address 0 unused
    for (ArrayDecl &a : _arrays) {
        a.base = next;
        next = roundUp(next + a.sizeBytes(), align);
    }
    _dataBytes = next;
}

Addr
ArrayDecl::elementAddr(const std::vector<std::int64_t> &idx) const
{
    hscd_assert(idx.size() == dims.size(), "array %s: %d subscripts, %d dims",
                name, idx.size(), dims.size());
    // Column-major: first subscript varies fastest.
    std::int64_t linear = 0;
    std::int64_t mult = 1;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        if (idx[d] < 0 || idx[d] >= dims[d])
            panic("array %s: subscript %d out of range [0,%d) in dim %d",
                  name, idx[d], dims[d], d);
        linear += idx[d] * mult;
        mult *= dims[d];
    }
    return base + Addr(linear) * wordBytes;
}

std::string
Program::describeAddr(Addr addr) const
{
    for (const ArrayDecl &a : _arrays) {
        if (addr >= a.base && addr < a.base + a.sizeBytes()) {
            std::int64_t linear = (addr - a.base) / wordBytes;
            std::string subs;
            for (std::size_t d = 0; d < a.dims.size(); ++d) {
                if (d)
                    subs += ",";
                subs += std::to_string(linear % a.dims[d]);
                linear /= a.dims[d];
            }
            return a.name + "(" + subs + ")";
        }
    }
    return csprintf("<unmapped:0x%x>", addr);
}

} // namespace hir
} // namespace hscd
