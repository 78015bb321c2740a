#include "trace.hh"

#include <cstdlib>
#include <iostream>

namespace ztx::trace {

namespace {

std::uint32_t &
mask()
{
    static std::uint32_t value = 0;
    return value;
}

std::ostream *&
sink()
{
    static std::ostream *s = nullptr;
    return s;
}

struct EnvInit
{
    EnvInit()
    {
        if (const char *env = std::getenv("ZTX_TRACE"))
            enableFromString(env);
    }
};

EnvInit envInit;

} // namespace

void
enable(Category category)
{
    mask() |= std::uint32_t(category);
}

void
disable(Category category)
{
    mask() &= ~std::uint32_t(category);
}

void
disableAll()
{
    mask() = 0;
}

bool
enabled(Category category)
{
    return mask() & std::uint32_t(category);
}

bool
anyEnabled()
{
    return mask() != 0;
}

const char *
categoryName(Category category)
{
    switch (category) {
      case Category::Tx: return "tx";
      case Category::Xi: return "xi";
      case Category::Cache: return "cache";
      case Category::Millicode: return "millicode";
      case Category::Io: return "io";
      case Category::Exec: return "exec";
    }
    return "?";
}

void
enableFromString(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        for (const Category c :
             {Category::Tx, Category::Xi, Category::Cache,
              Category::Millicode, Category::Io, Category::Exec}) {
            if (name == categoryName(c))
                enable(c);
        }
        pos = comma + 1;
    }
}

void
setSink(std::ostream *s)
{
    sink() = s;
}

void
emit(Category category, const std::string &message)
{
    std::ostream &out = sink() ? *sink() : std::cerr;
    out << '[' << categoryName(category) << "] " << message << '\n';
}

} // namespace ztx::trace
