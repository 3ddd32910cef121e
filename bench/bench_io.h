#ifndef FLEET_BENCH_BENCH_IO_H
#define FLEET_BENCH_BENCH_IO_H

/**
 * @file
 * The I/O every JSON-writing bench shares: a declarative command-line
 * parser (Cli), the BENCH_*.json writer (JsonWriter, opened with the
 * run-provenance block by benchReport), and the exact --baseline replay
 * (replayBaseline). Kept apart from bench_common.h, which the
 * fleetbench workload also compiles, so that header carries no I/O.
 */

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "system/pu_backend.h"
#include "util/json_lite.h"

#ifndef FLEET_GIT_SHA
#define FLEET_GIT_SHA "unknown"
#endif

namespace fleet {
namespace bench {

/**
 * A bench's flags, declared once: parse() fills the bound variables and
 * the usage line is generated from the declarations. Numbers must be
 * whole integers that fit the target (no atoi-style "abc" -> 0, no
 * "-1" wrapping to 2^64-1); u64 values parse in base 0, so 0x... works.
 */
class Cli
{
  public:
    /** A switch: present = true. */
    Cli &flag(const char *name, bool *out)
    {
        return add(name, nullptr, [out](const char *) { return *out = true; });
    }
    Cli &option(const char *name, const char *meta, std::string *out)
    {
        return add(name, meta, [out](const char *v) {
            *out = v;
            return true;
        });
    }
    Cli &option(const char *name, const char *meta, int *out)
    {
        return add(name, meta, [out](const char *v) {
            char *end = nullptr;
            errno = 0;
            long long n = std::strtoll(v, &end, 10);
            bool ok = wholeNumber(v + (v[0] == '-'), end) &&
                      n >= INT32_MIN && n <= INT32_MAX;
            if (ok)
                *out = int(n);
            return ok;
        });
    }
    /** A u64 value; the optional stays empty unless the flag is given. */
    Cli &option(const char *name, const char *meta,
                std::optional<uint64_t> *out)
    {
        return add(name, meta, [out](const char *v) {
            return (*out = parseU64(v)).has_value();
        });
    }
    /** A u64 flag that may repeat; each occurrence appends. */
    Cli &repeated(const char *name, const char *meta,
                  std::vector<uint64_t> *out)
    {
        auto append = [out](const char *v) {
            auto n = parseU64(v);
            if (n)
                out->push_back(*n);
            return n.has_value();
        };
        return add(name, meta, append, true);
    }
    /** --backend, through the shared name mapping (pu_backend.h). */
    Cli &backend(system::PuBackend *out)
    {
        return add("--backend", system::kPuBackendChoices,
                   [out](const char *v) {
                       auto parsed = system::parsePuBackend(v);
                       if (parsed)
                           *out = *parsed;
                       return parsed.has_value();
                   });
    }

    /** Fill the bound variables from argv. On an unknown flag, a
     * missing value or a malformed one, print why plus the usage line
     * to stderr and return false (benches then exit 2). */
    bool parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const Flag *flag = nullptr;
            for (const Flag &f : flags_)
                if (f.name == argv[i])
                    flag = &f;
            std::string why;
            if (!flag)
                why = std::string("unknown flag '") + argv[i] + "'";
            else if (flag->meta && i + 1 >= argc)
                why = "missing value for " + flag->name;
            else if (!flag->set(flag->meta ? argv[++i] : nullptr))
                why = std::string("bad value '") + argv[i] + "' for " +
                      flag->name;
            if (why.empty())
                continue;
            std::string usage = std::string("usage: ") + argv[0];
            for (const Flag &f : flags_)
                usage += " [" + f.name + (f.meta ? " " : "") +
                         (f.meta ? f.meta : "") +
                         (f.repeats ? "]..." : "]");
            std::fprintf(stderr, "%s: %s\n%s\n", argv[0], why.c_str(),
                         usage.c_str());
            return false;
        }
        return true;
    }

  private:
    struct Flag
    {
        std::string name;
        const char *meta; ///< Value placeholder; null for a switch.
        std::function<bool(const char *)> set;
        bool repeats = false;
    };

    Cli &add(const char *name, const char *meta,
             std::function<bool(const char *)> set, bool repeats = false)
    {
        flags_.push_back({name, meta, std::move(set), repeats});
        return *this;
    }

    /** strto* consumed all of `digits` (which must start with a digit:
     * no sign, space or empty string) without overflowing. */
    static bool wholeNumber(const char *digits, const char *end)
    {
        return std::isdigit(static_cast<unsigned char>(*digits)) &&
               *end == '\0' && errno == 0;
    }
    static std::optional<uint64_t> parseU64(const char *v)
    {
        char *end = nullptr;
        errno = 0;
        unsigned long long n = std::strtoull(v, &end, 0);
        if (!wholeNumber(v, end))
            return std::nullopt;
        return uint64_t(n);
    }

    std::vector<Flag> flags_;
};

/** `v` with `precision` digits after the point (printf "%.*f"): how
 * the writer prints doubles and how replayBaseline compares them. */
inline std::string
fixed(double v, int precision)
{
    int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
    std::string out(size_t(n), '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", precision, v);
    return out;
}

/**
 * Pretty-printed JSON built into a string: two-space indentation, one
 * member per line, with commas and indentation kept by the writer. The
 * top-level object is open from construction; object()/array() open a
 * nested scope, end() closes the innermost one. Doubles print at the
 * caller's precision; strings are always escaped.
 */
class JsonWriter
{
  public:
    /** How a scope lays out its items: one per line (Block), all on
     * one line (Row), or one per line with the opening bracket on the
     * line below its key (BlockBelowKey: fig7's "counters" keeps the
     * layout its earlier artifacts had). */
    enum class Layout
    {
        Block,
        Row,
        BlockBelowKey,
    };

    JsonWriter() { open(nullptr, '{', Layout::Block); }

    /** Open an object; `key` is null inside an array. */
    JsonWriter &object(const char *key = nullptr,
                       Layout layout = Layout::Block)
    {
        return open(key, '{', layout);
    }
    JsonWriter &array(const char *key = nullptr,
                      Layout layout = Layout::Block)
    {
        return open(key, '[', layout);
    }
    JsonWriter &end()
    {
        Scope scope = scopes_.back();
        scopes_.pop_back();
        if (scope.layout != Layout::Row && scope.items > 0)
            newline();
        out_ += scope.close;
        return *this;
    }

    JsonWriter &field(const char *key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    /** Integers and bools. (A template, so that a string literal
     * takes the std::string overload, not a pointer-to-bool one.) */
    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    JsonWriter &field(const char *key, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return raw(key, v ? "true" : "false");
        else
            return raw(key, std::to_string(v));
    }
    JsonWriter &field(const char *key, double v, int precision)
    {
        return raw(key, fixed(v, precision));
    }
    /** An array element. */
    JsonWriter &value(const std::string &v) { return raw(nullptr, quote(v)); }

    /** Close every open scope; the newline-terminated document. */
    std::string finish()
    {
        while (!scopes_.empty())
            end();
        return out_ + "\n";
    }

    /** finish() into `path`. A failed open, write or close prints
     * "cannot write" and returns false; success prints "wrote". */
    bool save(const std::string &path)
    {
        std::ofstream out(path);
        out << finish();
        out.close(); // flushes: a full disk fails here, not above
        if (!out) {
            std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                         std::strerror(errno));
            return false;
        }
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    struct Scope
    {
        char close;
        Layout layout;
        int items = 0;
    };

    static std::string quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            char esc[8] = {c, 0};
            if (c == '"' || c == '\\' || c == '\n')
                std::snprintf(esc, sizeof esc, "\\%c", c == '\n' ? 'n' : c);
            else if (static_cast<unsigned char>(c) < 0x20)
                std::snprintf(esc, sizeof esc, "\\u%04x",
                              static_cast<unsigned char>(c));
            out += esc;
        }
        return out + "\"";
    }

    /** Line break, indented to the innermost open scope's items. */
    void newline()
    {
        out_ += '\n';
        out_.append(2 * scopes_.size(), ' ');
    }
    /** Separator and indentation for the next item, then its key. */
    void item(const char *key)
    {
        if (!scopes_.empty()) {
            Scope &scope = scopes_.back();
            if (scope.items)
                out_ += scope.layout == Layout::Row ? ", " : ",";
            if (scope.layout != Layout::Row)
                newline();
            ++scope.items;
        }
        if (key)
            out_ += quote(key) + ": ";
    }
    JsonWriter &raw(const char *key, const std::string &text)
    {
        item(key);
        out_ += text;
        return *this;
    }
    JsonWriter &open(const char *key, char bracket, Layout layout)
    {
        item(key);
        if (layout == Layout::BlockBelowKey) {
            out_.pop_back(); // the space after ':'
            newline();
        }
        out_ += bracket;
        scopes_.push_back({bracket == '{' ? '}' : ']', layout});
        return *this;
    }

    std::string out_;
    std::vector<Scope> scopes_;
};

/**
 * A BENCH_*.json writer opened with the run-provenance keys every
 * artifact carries, so one downloaded from CI is attributable without
 * its workflow context: which bench, which commit, which PU backend,
 * and how many host threads. `threads` is the configured worker count
 * (0 = one per hardware thread); -1 omits it for benches where host
 * threading does not apply. Cluster provenance: `devices` is the
 * simulated device count, and `link_latency` / `link_gbps` describe
 * the inter-device link model when devices > 1 (0 otherwise).
 */
inline JsonWriter
benchReport(const char *bench_name, const std::string &backend,
            int threads, int devices = 1, uint64_t link_latency = 0,
            double link_gbps = 0.0)
{
#ifdef NDEBUG
    const bool release = true;
#else
    const bool release = false;
#endif
    JsonWriter w;
    w.field("bench", bench_name)
        .field("bench_version", kBenchJsonVersion)
        .field("git_sha", FLEET_GIT_SHA)
        .field("backend", backend);
    if (threads >= 0)
        w.field("threads", threads);
    return w.field("devices", devices)
        .field("link_latency_cycles", link_latency)
        .field("link_gbps", link_gbps, 3)
        .field("host_hardware_threads", std::thread::hardware_concurrency())
        .field("release_build", release);
}

/** One current result for replayBaseline: its id and its value, both
 * as the bench prints them. */
struct BaselineRow
{
    std::string id;
    std::string value;
};

/**
 * Compare `rows` against a JSON written by an earlier run: inside the
 * file's top-level array `array`, the object whose `id_key` equals a
 * row's id must carry `value_key` exactly as the row prints it. The
 * simulator is deterministic, so any drift is a behaviour change, not
 * noise. Only that array is searched, so a key the run metadata also
 * emits never pairs with a row; file rows the current run lacks are
 * ignored. Prints each mismatch and returns true when all rows match.
 */
inline bool
replayBaseline(const std::string &path, const char *array,
               const char *id_key, const char *value_key,
               const std::vector<BaselineRow> &rows)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    json::Value root;
    std::string error;
    if (!json::parse(text.str(), root, &error)) {
        std::fprintf(stderr, "baseline %s: not JSON: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const json::Value *list = root.find(array);
    if (!list || !list->isArray()) {
        std::fprintf(stderr, "baseline %s: no \"%s\" array\n",
                     path.c_str(), array);
        return false;
    }
    bool ok = true;
    for (const BaselineRow &row : rows) {
        const json::Value *old = nullptr;
        for (const json::Value &item : list->array) {
            const json::Value *id = item.find(id_key);
            if (id && (id->isString() || id->isNumber()) &&
                id->str == row.id) {
                old = item.find(value_key);
                break;
            }
        }
        if (!old || !old->isNumber()) {
            std::fprintf(stderr, "baseline: %s %s has no %s in %s\n",
                         id_key, row.id.c_str(), value_key, path.c_str());
            ok = false;
        } else if (old->str != row.value) {
            std::fprintf(stderr, "baseline: %s %s %s changed: %s -> %s\n",
                         id_key, row.id.c_str(), value_key,
                         old->str.c_str(), row.value.c_str());
            ok = false;
        }
    }
    if (ok)
        std::printf("baseline: %s unchanged for all %zu %s (vs %s)\n",
                    value_key, rows.size(), array, path.c_str());
    return ok;
}

} // namespace bench
} // namespace fleet

#endif // FLEET_BENCH_BENCH_IO_H
