#include "sample/plan.hh"

#include <cstdlib>
#include <sstream>

#include "common/log.hh"

namespace oscache
{
namespace sample
{

namespace
{

/** parseCount()'s grammar; false on malformed input. */
bool
tryParseCount(const std::string &text, std::uint64_t &out)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0)
        return false;
    double scale = 1;
    switch (*end) {
      case '\0':
        break;
      case 'k':
      case 'K':
        scale = 1e3;
        break;
      case 'm':
      case 'M':
        scale = 1e6;
        break;
      case 'g':
      case 'G':
        scale = 1e9;
        break;
      default:
        return false;
    }
    out = std::uint64_t(value * scale);
    return true;
}

std::string
compact(std::uint64_t n)
{
    std::ostringstream os;
    if (n >= 1'000'000 && n % 1'000'000 == 0)
        os << n / 1'000'000 << "m";
    else if (n >= 1'000 && n % 1'000 == 0)
        os << n / 1'000 << "k";
    else
        os << n;
    return os.str();
}

} // namespace

std::uint64_t
parseCount(const std::string &text)
{
    std::uint64_t count = 0;
    if (!tryParseCount(text, count))
        fatal("sampling plan: bad count '", text, "'");
    return count;
}

std::string
SamplingPlan::describe() const
{
    std::ostringstream os;
    os << compact(warmup) << "+" << compact(measure) << " of "
       << compact(period);
    if (targetError > 0)
        os << " (target ±" << targetError * 100 << "%)";
    return os.str();
}

std::optional<SamplingPlan>
SamplingPlan::tryParse(const std::string &text, std::string *error)
{
    const auto reject = [error](std::string why) {
        if (error != nullptr)
            *error = std::move(why);
        return std::nullopt;
    };

    SamplingPlan plan;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return reject("expected key=value, got '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        std::uint64_t count = 0;
        if (key == "error") {
            char *end = nullptr;
            plan.targetError = std::strtod(value.c_str(), &end);
            if (end == value.c_str())
                return reject("bad value '" + value + "' for error");
            continue;
        }
        if (!tryParseCount(value, count))
            return reject("bad count '" + value + "' for " + key);
        if (key == "period")
            plan.period = count;
        else if (key == "measure")
            plan.measure = count;
        else if (key == "warmup")
            plan.warmup = count;
        else if (key == "rounds")
            plan.maxRounds = unsigned(count);
        else if (key == "spinbreak")
            plan.spinBreak = count;
        else
            return reject("unknown key '" + key + "'");
    }
    if (!plan.valid())
        return reject("need measure > 0 and warmup + measure <= period "
                      "(got " + plan.describe() + ")");
    return plan;
}

SamplingPlan
SamplingPlan::parse(const std::string &text)
{
    std::string error;
    const auto plan = tryParse(text, &error);
    if (!plan.has_value())
        fatal("sampling plan: ", error);
    return *plan;
}

} // namespace sample
} // namespace oscache
