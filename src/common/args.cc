#include "src/common/args.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/log.h"

namespace spur {

namespace {

/** How @p flag is written, e.g. "--refs=N" or "--format=text|json";
 *  appended piecewise because GCC 12's -Wrestrict misfires on
 *  `const char* + std::string&&`. */
std::string
Spelling(const Flag& flag)
{
    std::string spelled = "--";
    spelled += flag.name;
    switch (flag.kind) {
      case FlagKind::kSwitch: break;
      case FlagKind::kUnsigned: spelled += "=N"; break;
      case FlagKind::kPositive: spelled += "=F"; break;
      case FlagKind::kText:
        if (flag.choices.empty()) {
            spelled += "=TEXT";
        }
        for (size_t i = 0; i < flag.choices.size(); ++i) {
            spelled += (i == 0) ? '=' : '|';
            spelled += flag.choices[i];
        }
        break;
    }
    return spelled;
}

/** True when @p value suits the value flag @p flag. */
bool
Fits(const Flag& flag, const std::string& value)
{
    uint64_t number = 0;
    double real = 0.0;
    switch (flag.kind) {
      case FlagKind::kSwitch: return value.empty();
      case FlagKind::kUnsigned:
        return ParseUnsigned(value, &number) && number >= flag.min &&
               number <= flag.max;
      case FlagKind::kPositive: return ParsePositiveDouble(value, &real);
      case FlagKind::kText:
        return flag.choices.empty() ||
               std::find(flag.choices.begin(), flag.choices.end(),
                         value) != flag.choices.end();
    }
    return false;
}

}  // namespace

Args::Args(int argc, char** argv, std::vector<Flag> flags,
           size_t max_positionals, int first)
  : flags_(std::move(flags))
{
    first = std::min(first, argc);
    const std::string error = Read(
        std::vector<std::string>(argv + first, argv + argc),
        max_positionals);
    if (error.empty()) {
        return;
    }
    std::string label = (argc > 0) ? argv[0] : "";
    label.erase(0, label.find_last_of('/') + 1);
    for (int i = 1; i < first; ++i) {
        label += ' ';
        label += argv[i];
    }
    std::fprintf(stderr, "%s: %s\n", label.c_str(), error.c_str());
    std::exit(2);
}

std::optional<Args>
Args::Parse(const std::vector<std::string>& words, std::vector<Flag> flags,
            size_t max_positionals, std::string* error)
{
    Args args;
    args.flags_ = std::move(flags);
    *error = args.Read(words, max_positionals);
    if (!error->empty()) {
        return std::nullopt;
    }
    return args;
}

std::string
Args::Read(const std::vector<std::string>& words, size_t max_positionals)
{
    for (const std::string& word : words) {
        if (word.rfind("--", 0) != 0) {
            if (positional_.size() == max_positionals) {
                return std::string("unexpected argument '") + word + "'";
            }
            positional_.push_back(word);
            continue;
        }
        const size_t eq = word.find('=');
        const std::string name = word.substr(2, eq - 2);
        const Flag* flag = Find(name);
        if (flag == nullptr) {
            std::string error = "unknown flag '";
            error += word;
            error += "' (accepted:";
            for (const Flag& f : flags_) {
                error += ' ';
                error += Spelling(f);
            }
            error += flags_.empty() ? " none)" : ")";
            return error;
        }
        // A switch takes no "=", a value flag needs one and a fitting value.
        const bool valued = (eq != std::string::npos);
        const std::string value = valued ? word.substr(eq + 1) : "";
        if (valued != (flag->kind != FlagKind::kSwitch) ||
            (valued && !Fits(*flag, value))) {
            std::string error = std::string("bad argument '") + word +
                                "' (want " + Spelling(*flag);
            if (flag->min > 0 || flag->max < UINT64_MAX) {
                error += std::string(", N in ") + std::to_string(flag->min) +
                         ".." + std::to_string(flag->max);
            }
            return error + ")";
        }
        values_[name] = value;
    }
    return "";
}

const Flag*
Args::Find(const std::string& name) const
{
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
    return (flag != flags_.end()) ? &*flag : nullptr;
}

const std::string*
Args::Value(const std::string& name) const
{
    if (Find(name) == nullptr) {
        Panic(std::string("Args: --") + name + " is not a declared flag");
    }
    const auto it = values_.find(name);
    return (it != values_.end()) ? &it->second : nullptr;
}

bool
Args::Has(const std::string& name) const
{
    return Value(name) != nullptr;
}

std::string
Args::GetString(const std::string& name, const std::string& fallback) const
{
    const std::string* value = Value(name);
    return (value != nullptr) ? *value : fallback;
}

uint64_t
Args::GetUnsigned(const std::string& name, uint64_t fallback) const
{
    const std::string* value = Value(name);
    if (value != nullptr) {
        ParseUnsigned(*value, &fallback);
    }
    return fallback;
}

double
Args::GetDouble(const std::string& name, double fallback) const
{
    const std::string* value = Value(name);
    if (value != nullptr) {
        ParsePositiveDouble(*value, &fallback);
    }
    return fallback;
}

bool
ParsePositiveDouble(const std::string& text, double* out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(value > 0.0) ||
        !std::isfinite(value)) {
        return false;
    }
    *out = value;
    return true;
}

bool
ParseUnsigned(const std::string& text, uint64_t* out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        return false;
    }
    *out = value;
    return true;
}

std::string
FormatToolUsage(const std::string& tool, const std::string& overview,
                const std::vector<ToolCommand>& commands)
{
    std::string text = "usage: ";
    const std::string continuation(7, ' ');  // Aligns under "usage: ".
    for (size_t i = 0; i < commands.size(); ++i) {
        if (i > 0) {
            text += continuation;
        }
        text += tool;
        text += ' ';
        text += commands[i].synopsis;
        text += '\n';
    }
    if (!overview.empty()) {
        text += '\n';
        text += overview;
        text += '\n';
    }
    // Flag docs align on one column across the whole tool.
    size_t widest = 0;
    for (const ToolCommand& command : commands) {
        for (const ToolFlag& flag : command.flags) {
            widest = std::max(widest, flag.name.size());
        }
    }
    for (const ToolCommand& command : commands) {
        text += '\n';
        text += tool;
        text += ' ';
        text += command.synopsis;
        text += '\n';
        text += "  ";
        text += command.summary;
        text += '\n';
        for (const ToolFlag& flag : command.flags) {
            text += "    ";
            text += flag.name;
            text += std::string(widest - flag.name.size() + 2, ' ');
            text += flag.doc;
            text += '\n';
        }
    }
    return text;
}

}  // namespace spur
