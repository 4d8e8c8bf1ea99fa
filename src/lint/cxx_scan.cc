#include "src/lint/cxx_scan.h"

#include <cctype>
#include <utility>

namespace spur::lint {

// ---------------------------------------------------------------------------
// Line utilities
// ---------------------------------------------------------------------------

std::vector<std::string>
SplitLines(const std::string& content)
{
    std::vector<std::string> lines;
    std::string current;
    for (const char c : content) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current.push_back(c);
        }
    }
    if (!current.empty()) {
        lines.push_back(std::move(current));
    }
    return lines;
}

std::vector<std::string>
StripComments(const std::vector<std::string>& lines)
{
    enum class State : uint8_t { kCode, kString, kChar, kBlockComment };
    State state = State::kCode;
    std::vector<std::string> out;
    out.reserve(lines.size());
    for (const std::string& line : lines) {
        std::string code;
        code.reserve(line.size());
        if (state != State::kBlockComment) {
            state = State::kCode;
        }
        for (size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            const char next = (i + 1 < line.size()) ? line[i + 1] : '\0';
            switch (state) {
                case State::kCode:
                    if (c == '/' && next == '/') {
                        i = line.size();  // Rest of the line is comment.
                    } else if (c == '/' && next == '*') {
                        state = State::kBlockComment;
                        ++i;
                    } else {
                        if (c == '"') {
                            state = State::kString;
                        } else if (c == '\'') {
                            state = State::kChar;
                        }
                        code.push_back(c);
                    }
                    break;
                case State::kString:
                case State::kChar:
                    code.push_back(c);
                    if (c == '\\' && next != '\0') {
                        code.push_back(next);
                        ++i;
                    } else if ((state == State::kString && c == '"') ||
                               (state == State::kChar && c == '\'')) {
                        state = State::kCode;
                    }
                    break;
                case State::kBlockComment:
                    if (c == '*' && next == '/') {
                        state = State::kCode;
                        ++i;
                    }
                    break;
            }
        }
        out.push_back(std::move(code));
    }
    return out;
}

bool
IsIdentChar(char c)
{
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool
HasToken(const std::string& text, const std::string& token, size_t* column)
{
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        if (pos == 0 || !IsIdentChar(text[pos - 1])) {
            if (column != nullptr) {
                *column = pos;
            }
            return true;
        }
        ++pos;
    }
    return false;
}

bool
HasWord(const std::string& text, const std::string& word)
{
    size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
        const size_t after = pos + word.size();
        const bool right_ok =
            after >= text.size() || !IsIdentChar(text[after]);
        if (left_ok && right_ok) {
            return true;
        }
        ++pos;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

namespace {

bool
IsIdentStart(char c)
{
    return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool
IsSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/** Consumes an identifier chain (idents joined by ::) at @p i. */
std::string
LexChain(const std::string& line, size_t* i)
{
    const size_t start = *i;
    size_t pos = *i;
    if (line[pos] == ':') {  // Leading :: of a global-qualified name.
        pos += 2;
    }
    while (pos < line.size() && IsIdentChar(line[pos])) {
        ++pos;
    }
    while (pos + 2 < line.size() && line[pos] == ':' &&
           line[pos + 1] == ':' && IsIdentStart(line[pos + 2])) {
        pos += 2;
        while (pos < line.size() && IsIdentChar(line[pos])) {
            ++pos;
        }
    }
    *i = pos;
    return line.substr(start, pos - start);
}

}  // namespace

std::vector<Token>
Tokenize(const std::vector<std::string>& code)
{
    std::vector<Token> tokens;
    for (size_t li = 0; li < code.size(); ++li) {
        const std::string& line = code[li];
        const size_t line_no = li + 1;
        size_t i = 0;
        while (i < line.size() && IsSpace(line[i])) {
            ++i;
        }
        if (i < line.size() && line[i] == '#') {
            continue;  // Preprocessor; includes are extracted separately.
        }
        while (i < line.size()) {
            const char c = line[i];
            const char next = (i + 1 < line.size()) ? line[i + 1] : '\0';
            if (IsSpace(c)) {
                ++i;
            } else if (IsIdentStart(c)) {
                tokens.push_back({LexChain(line, &i), line_no});
            } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
                const size_t start = i;
                while (i < line.size() &&
                       (IsIdentChar(line[i]) || line[i] == '.' ||
                        (line[i] == '\'' && i + 1 < line.size() &&
                         IsIdentChar(line[i + 1])))) {
                    ++i;
                }
                tokens.push_back({line.substr(start, i - start), line_no});
            } else if (c == '"') {
                ++i;
                while (i < line.size()) {
                    if (line[i] == '\\') {
                        i += 2;
                    } else if (line[i] == '"') {
                        ++i;
                        break;
                    } else {
                        ++i;
                    }
                }
                tokens.push_back({"\"\"", line_no});
            } else if (c == '\'') {
                ++i;
                while (i < line.size()) {
                    if (line[i] == '\\') {
                        i += 2;
                    } else if (line[i] == '\'') {
                        ++i;
                        break;
                    } else {
                        ++i;
                    }
                }
                tokens.push_back({"''", line_no});
            } else if (c == '-' && next == '>') {
                tokens.push_back({"->", line_no});
                i += 2;
            } else if (c == ':' && next == ':') {
                if (i + 2 < line.size() && IsIdentStart(line[i + 2])) {
                    tokens.push_back({LexChain(line, &i), line_no});
                } else {
                    tokens.push_back({"::", line_no});
                    i += 2;
                }
            } else {
                tokens.push_back({std::string(1, c), line_no});
                ++i;
            }
        }
    }
    return tokens;
}

// ---------------------------------------------------------------------------
// Scoped scanner
// ---------------------------------------------------------------------------

namespace {

struct Scope {
    enum class Kind : uint8_t {
        kNamespace,
        kClass,
        kFunction,
        kLambda,
        kBlock,
    };
    Kind kind = Kind::kBlock;
    std::string name;
};

bool
IsKeyword(const std::string& t)
{
    return t == "if" || t == "for" || t == "while" || t == "switch" ||
           t == "catch" || t == "return" || t == "do" || t == "else" ||
           t == "try" || t == "sizeof" || t == "new" || t == "delete" ||
           t == "struct" || t == "class" || t == "public" ||
           t == "private" || t == "protected" || t == "virtual" ||
           t == "final" || t == "override" || t == "const" ||
           t == "constexpr" || t == "static" || t == "inline" ||
           t == "explicit" || t == "noexcept" || t == "template" ||
           t == "typename" || t == "using" || t == "operator";
}

bool
IsIdentToken(const std::string& t)
{
    return !t.empty() &&
           (IsIdentStart(t[0]) || (t.size() > 2 && t[0] == ':'));
}

/** True when tokens[i] == "[" starts a lambda introducer rather than an
 *  array subscript or an [[attribute]]. */
bool
IsLambdaIntroducer(const std::vector<Token>& tokens, size_t i, size_t from)
{
    if (tokens[i].text != "[") {
        return false;
    }
    if (i + 1 < tokens.size() && tokens[i + 1].text == "[") {
        return false;  // [[attribute]]
    }
    if (i == from) {
        return true;
    }
    const std::string& prev = tokens[i - 1].text;
    return !(IsIdentToken(prev) && !IsKeyword(prev)) && prev != ")" &&
           prev != "]" && prev != "}";
}

/**
 * Decides what kind of scope the `{` at @p brace opens by looking at
 * the tokens of its statement, tokens[from..brace).
 */
Scope
ClassifyScope(const std::vector<Token>& tokens, size_t from, size_t brace)
{
    // namespace [name] {
    for (size_t i = from; i < brace; ++i) {
        if (tokens[i].text == "namespace") {
            std::string name;
            if (i + 1 < brace && IsIdentToken(tokens[i + 1].text)) {
                name = tokens[i + 1].text;
            }
            return {Scope::Kind::kNamespace, name};
        }
    }
    // class/struct ... Name [: bases] {   (enums never reach here: the
    // enum collector consumes their bodies before scope classification).
    for (size_t i = from; i < brace; ++i) {
        if (tokens[i].text != "class" && tokens[i].text != "struct") {
            continue;
        }
        std::string name;
        size_t j = i + 1;
        for (; j < brace; ++j) {
            const std::string& t = tokens[j].text;
            if (t == ":") {
                break;  // Base clause; the name came before it.
            }
            if (t == "(") {  // Skip macro arguments, e.g. SPUR_CAPABILITY.
                int depth = 1;
                for (++j; j < brace && depth > 0; ++j) {
                    if (tokens[j].text == "(") {
                        ++depth;
                    } else if (tokens[j].text == ")") {
                        --depth;
                    }
                }
                --j;
                continue;
            }
            if (IsIdentToken(t) && !IsKeyword(t)) {
                name = t;
            }
        }
        if (!name.empty()) {
            return {Scope::Kind::kClass, name};
        }
    }
    // Lambda introducer anywhere in the statement.
    for (size_t i = from; i < brace; ++i) {
        if (IsLambdaIntroducer(tokens, i, from)) {
            return {Scope::Kind::kLambda, "<lambda>"};
        }
    }
    // Function: an identifier immediately before the statement's first
    // '(' (covers out-of-line `ThreadPool::Submit(...)`, constructors
    // with init lists, and TEST(...)-style macros).
    for (size_t i = from; i < brace; ++i) {
        if (tokens[i].text != "(") {
            continue;
        }
        if (i > from && IsIdentToken(tokens[i - 1].text) &&
            !IsKeyword(tokens[i - 1].text)) {
            return {Scope::Kind::kFunction, tokens[i - 1].text};
        }
        break;  // '(' not preceded by a name: control flow or grouping.
    }
    return {Scope::Kind::kBlock, ""};
}

/** Index of the matching ')' for the '(' at @p open, or npos. */
size_t
MatchParen(const std::vector<Token>& tokens, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == "(") {
            ++depth;
        } else if (tokens[i].text == ")") {
            if (--depth == 0) {
                return i;
            }
        }
    }
    return std::string::npos;
}

/** Joins tokens[first..last) into a lock expression ("gate" "." "mutex"
 *  -> "gate.mutex"), dropping a leading '&'. */
std::string
JoinExpr(const std::vector<Token>& tokens, size_t first, size_t last)
{
    std::string expr;
    for (size_t i = first; i < last; ++i) {
        if (expr.empty() && tokens[i].text == "&") {
            continue;
        }
        expr += tokens[i].text;
    }
    return expr;
}

bool
Contains(const std::string& text, const std::string& needle)
{
    return text.find(needle) != std::string::npos;
}

}  // namespace

CxxScan
ScanCxx(const std::string& path, const std::vector<std::string>& code)
{
    CxxScan scan;

    // Includes come straight off the stripped lines: quoted form only.
    for (size_t li = 0; li < code.size(); ++li) {
        size_t pos = code[li].find("#include");
        if (pos == std::string::npos) {
            continue;
        }
        pos = code[li].find('"', pos);
        if (pos == std::string::npos) {
            continue;  // <system> include.
        }
        const size_t end = code[li].find('"', pos + 1);
        if (end == std::string::npos) {
            continue;
        }
        scan.includes.push_back(
            {li + 1, code[li].substr(pos + 1, end - pos - 1)});
    }

    const std::vector<Token> tokens = Tokenize(code);

    std::vector<Scope> scopes;
    struct HeldLock {
        std::string node;
        size_t line = 0;
        size_t scope_depth = 0;  ///< scopes.size() at acquisition.
        size_t context = 0;      ///< Owning function/lambda scope index+1.
    };
    std::vector<HeldLock> held;
    struct ActiveSwitch {
        SwitchRecord record;
        size_t open_depth = 0;  ///< scopes.size() with the body open.
    };
    std::vector<ActiveSwitch> active_switches;
    size_t stmt_start = 0;

    // The innermost function/lambda scope, as index+1 (0 = file scope):
    // locks only interact when they share this context, so a lambda
    // body never orders against its enclosing function.
    const auto current_context = [&]() -> size_t {
        for (size_t i = scopes.size(); i > 0; --i) {
            const Scope::Kind kind = scopes[i - 1].kind;
            if (kind == Scope::Kind::kFunction ||
                kind == Scope::Kind::kLambda) {
                return i;
            }
        }
        return 0;
    };
    const auto function_name = [&]() -> std::string {
        for (size_t i = scopes.size(); i > 0; --i) {
            if (scopes[i - 1].kind == Scope::Kind::kFunction) {
                return scopes[i - 1].name;
            }
        }
        return "<file>";
    };
    const auto class_prefix = [&]() -> std::string {
        for (size_t i = scopes.size(); i > 0; --i) {
            if (scopes[i - 1].kind == Scope::Kind::kClass) {
                return scopes[i - 1].name;
            }
            if (scopes[i - 1].kind == Scope::Kind::kFunction) {
                const std::string& name = scopes[i - 1].name;
                const size_t sep = name.rfind("::");
                if (sep != std::string::npos) {
                    return name.substr(0, sep);
                }
            }
        }
        return "";
    };
    const auto normalize_lock = [&](const std::string& expr) {
        const std::string prefix = class_prefix();
        if (expr.rfind("this->", 0) == 0) {
            const std::string member = expr.substr(6);
            return prefix.empty() ? member : prefix + "::" + member;
        }
        if (Contains(expr, ".") || Contains(expr, "->")) {
            return path + ":" + function_name() + ":" + expr;
        }
        if (Contains(expr, "::")) {
            return expr;  // Already qualified; global by construction.
        }
        if (expr.rfind("g_", 0) == 0) {
            return expr;  // Global naming convention.
        }
        if (!expr.empty() && expr.back() == '_' && !prefix.empty()) {
            return prefix + "::" + expr;  // Member naming convention.
        }
        return path + ":" + function_name() + ":" + expr;
    };
    const auto is_mutex_lock = [](const std::string& t) {
        if (t == "MutexLock" || t == "lock_guard" || t == "unique_lock") {
            return true;
        }
        const auto ends_with = [&](const std::string& suffix) {
            return t.size() > suffix.size() &&
                   t.compare(t.size() - suffix.size(), suffix.size(),
                             suffix) == 0;
        };
        return ends_with("::MutexLock") || ends_with("::lock_guard") ||
               ends_with("::unique_lock");
    };

    for (size_t i = 0; i < tokens.size(); ++i) {
        const std::string& t = tokens[i].text;
        if (t == "{") {
            scopes.push_back(ClassifyScope(tokens, stmt_start, i));
            stmt_start = i + 1;
        } else if (t == "}") {
            if (!scopes.empty()) {
                scopes.pop_back();
            }
            while (!held.empty() &&
                   held.back().scope_depth > scopes.size()) {
                held.pop_back();
            }
            while (!active_switches.empty() &&
                   active_switches.back().open_depth > scopes.size()) {
                scan.switches.push_back(
                    std::move(active_switches.back().record));
                active_switches.pop_back();
            }
            stmt_start = i + 1;
        } else if (t == ";") {
            stmt_start = i + 1;
        } else if (t == "enum") {
            // Consume the whole definition here so its braces never
            // reach the scope stack and `enum class` is never taken
            // for a class.
            size_t j = i + 1;
            const bool scoped =
                j < tokens.size() &&
                (tokens[j].text == "class" || tokens[j].text == "struct");
            if (scoped) {
                ++j;
            }
            while (j < tokens.size() && (tokens[j].text == "[" ||
                                         tokens[j].text == "]")) {
                ++j;  // [[attributes]]
            }
            std::string name;
            if (j < tokens.size() && IsIdentToken(tokens[j].text) &&
                !IsKeyword(tokens[j].text)) {
                name = tokens[j].text;
                ++j;
            }
            while (j < tokens.size() && tokens[j].text != "{" &&
                   tokens[j].text != ";") {
                ++j;  // Underlying type clause.
            }
            if (j >= tokens.size() || tokens[j].text == ";") {
                i = j;  // Opaque declaration (or `enum` used as a type).
                stmt_start = i + 1;
                continue;
            }
            EnumDef def{name, {}, tokens[i].line};
            int depth = 0;
            bool expect_enumerator = true;
            for (; j < tokens.size(); ++j) {
                const std::string& e = tokens[j].text;
                if (e == "{" || e == "(" || e == "[") {
                    ++depth;
                } else if (e == ")" || e == "]") {
                    --depth;
                } else if (e == "}") {
                    if (--depth == 0) {
                        break;
                    }
                } else if (depth == 1) {
                    if (e == ",") {
                        expect_enumerator = true;
                    } else if (expect_enumerator && IsIdentToken(e)) {
                        def.enumerators.push_back(e);
                        expect_enumerator = false;
                    }
                }
            }
            if (scoped && !name.empty() && !def.enumerators.empty()) {
                scan.enums.push_back(std::move(def));
            }
            i = j;
            stmt_start = i + 1;
        } else if (t == "switch") {
            if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") {
                continue;
            }
            const size_t close = MatchParen(tokens, i + 1);
            if (close == std::string::npos ||
                close + 1 >= tokens.size() ||
                tokens[close + 1].text != "{") {
                continue;
            }
            scopes.push_back({Scope::Kind::kBlock, ""});
            active_switches.push_back(
                {SwitchRecord{tokens[i].line, false, true, {}},
                 scopes.size()});
            i = close + 1;
            stmt_start = i + 1;
        } else if (t == "case" && !active_switches.empty()) {
            ActiveSwitch& top = active_switches.back();
            if (i + 1 < tokens.size() &&
                Contains(tokens[i + 1].text, "::")) {
                top.record.labels.push_back(tokens[i + 1].text);
            } else {
                top.record.labels_parsed = false;
            }
        } else if (t == "default" && !active_switches.empty() &&
                   i + 1 < tokens.size() && tokens[i + 1].text == ":") {
            active_switches.back().record.has_default = true;
        } else if (is_mutex_lock(t)) {
            // MutexLock var(expr);  — declarations like MutexLock(Mutex&)
            // have '(' directly after the type and never match.
            size_t j = i + 1;
            if (j < tokens.size() && tokens[j].text == "<") {
                while (j < tokens.size() && tokens[j].text != ">") {
                    ++j;  // lock_guard<Mutex> template arguments.
                }
                ++j;
            }
            if (j >= tokens.size() || !IsIdentToken(tokens[j].text) ||
                j + 1 >= tokens.size() || tokens[j + 1].text != "(") {
                continue;
            }
            const size_t close = MatchParen(tokens, j + 1);
            if (close == std::string::npos) {
                continue;
            }
            const std::string node =
                normalize_lock(JoinExpr(tokens, j + 2, close));
            const size_t context = current_context();
            for (const HeldLock& h : held) {
                if (h.context == context && h.node != node) {
                    scan.lock_edges.push_back({h.node, node, path, h.line,
                                               tokens[i].line,
                                               function_name(), false});
                }
            }
            held.push_back({node, tokens[i].line, scopes.size(), context});
            i = close;
        } else if (t == "Wait" && i + 1 < tokens.size() &&
                   tokens[i + 1].text == "(") {
            const size_t close = MatchParen(tokens, i + 1);
            if (close == std::string::npos) {
                continue;
            }
            const std::string node =
                normalize_lock(JoinExpr(tokens, i + 2, close));
            const size_t context = current_context();
            for (const HeldLock& h : held) {
                if (h.context == context && h.node != node) {
                    scan.lock_edges.push_back({h.node, node, path, h.line,
                                               tokens[i].line,
                                               function_name(), true});
                }
            }
            i = close;
        }
    }
    // Unterminated switches (malformed input) still get reported facts.
    while (!active_switches.empty()) {
        scan.switches.push_back(std::move(active_switches.back().record));
        active_switches.pop_back();
    }
    return scan;
}

}  // namespace spur::lint
