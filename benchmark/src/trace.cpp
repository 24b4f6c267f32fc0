#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace bench {

namespace {

const char *
nameOf(SpanName n)
{
    switch (n) {
    case SpanName::Request: return "request";
    case SpanName::Submit: return "submit";
    case SpanName::Queue: return "queue";
    case SpanName::Body: return "body";
    case SpanName::Round: return "round";
    case SpanName::Spawn: return "spawn";
    case SpanName::Wait: return "wait";
    case SpanName::Leaf: return "leaf";
    case SpanName::Pass: return "pass";
    case SpanName::Sort: return "sort";
    case SpanName::Compare: return "compare";
    case SpanName::Knn: return "knn";
    case SpanName::Ray: return "ray";
    case SpanName::Hull: return "hull";
    }
    return "?";
}

/** Spans that overlap others on their thread (a request waits while
 * the next one is submitted) are written as async begin/end pairs;
 * the rest nest per thread and are complete ("X") events. */
bool
isAsync(SpanName n)
{
    return n == SpanName::Request || n == SpanName::Queue;
}

} // namespace

Trace::Trace(unsigned workers, size_t worker_capacity,
             size_t driver_capacity)
    : driver_(workers)
{
    for (unsigned t = 0; t <= workers; ++t) {
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->spans.resize(t == driver_ ? driver_capacity
                                                   : worker_capacity);
    }
}

unsigned
Trace::self() const
{
    const auto w = Runtime::currentWorker();
    return w == hermes::core::invalidWorker ? driver_ : w;
}

void
Trace::record(unsigned t, uint64_t id, SpanName name, uint32_t op,
              uint64_t start, uint64_t end, uint64_t parent)
{
    auto &b = *buffers_[t];
    if (b.used == b.spans.size()) {
        ++b.dropped;
        return;
    }
    b.spans[b.used++] = {start, end, id, parent, op, name};
}

uint64_t
Trace::dropped() const
{
    uint64_t n = 0;
    for (const auto &b : buffers_)
        n += b->dropped;
    return n;
}

std::vector<uint64_t>
Trace::durations(SpanName n) const
{
    std::vector<uint64_t> out;
    for (const auto &b : buffers_)
        for (size_t i = 0; i < b->used; ++i)
            if (b->spans[i].name == n)
                out.push_back(b->spans[i].end - b->spans[i].start);
    return out;
}

std::vector<uint64_t>
Trace::selfTimes(SpanName n) const
{
    std::vector<uint64_t> out;
    for (const auto &b : buffers_) {
        std::vector<const Span *> spans;
        for (size_t i = 0; i < b->used; ++i)
            if (!isAsync(b->spans[i].name))
                spans.push_back(&b->spans[i]);
        // Outer spans first: by start, then longest first.
        std::sort(spans.begin(), spans.end(),
                  [](const Span *a, const Span *c) {
                      return a->start != c->start ? a->start < c->start
                                                  : a->end > c->end;
                  });
        std::vector<std::pair<const Span *, uint64_t>> stack;
        auto retire = [&] {
            if (stack.back().first->name == n)
                out.push_back(stack.back().second);
            stack.pop_back();
        };
        for (const Span *s : spans) {
            while (!stack.empty() && stack.back().first->end <= s->start)
                retire();
            if (!stack.empty()) {
                auto &self = stack.back().second;
                self -= std::min(self, s->end - s->start);
            }
            stack.emplace_back(s, s->end - s->start);
        }
        while (!stack.empty())
            retire();
    }
    return out;
}

bool
Trace::writeChromeJson(const std::string &path, uint64_t origin,
                       const std::function<bool(uint32_t)> &keep) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [origin](uint64_t ns) {
        return static_cast<double>(ns - origin) * 1e-3;
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    bool first = true;
    auto sep = [&] {
        std::fputs(first ? "" : ",\n", f);
        first = false;
    };
    for (unsigned t = 0; t < buffers_.size(); ++t) {
        sep();
        std::fprintf(f,
                     "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                     "\"thread_name\", \"args\": {\"name\": \"%s%u\"}}",
                     t, t == driver_ ? "driver" : "worker",
                     t == driver_ ? 0 : t);
    }
    for (unsigned t = 0; t < buffers_.size(); ++t) {
        for (size_t i = 0; i < buffers_[t]->used; ++i) {
            const Span &s = buffers_[t]->spans[i];
            if (!keep(s.op))
                continue;
            const auto id = static_cast<unsigned long long>(s.id);
            const auto parent = static_cast<unsigned long long>(s.parent);
            sep();
            if (isAsync(s.name)) {
                std::fprintf(
                    f,
                    "{\"ph\": \"b\", \"cat\": \"op\", \"pid\": 1, "
                    "\"tid\": %u, \"name\": \"%s\", \"id\": %llu, "
                    "\"ts\": %.3f, \"args\": {\"op\": %u, \"parent\": "
                    "%llu}},\n{\"ph\": \"e\", \"cat\": \"op\", \"pid\": "
                    "1, \"tid\": %u, \"name\": \"%s\", \"id\": %llu, "
                    "\"ts\": %.3f}",
                    t, nameOf(s.name), id, us(s.start), s.op, parent, t,
                    nameOf(s.name), id, us(s.end));
            } else {
                std::fprintf(
                    f,
                    "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": "
                    "\"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"op\": %u, \"span\": %llu, \"parent\": %llu}}",
                    t, nameOf(s.name), us(s.start),
                    static_cast<double>(s.end - s.start) * 1e-3, s.op,
                    id, parent);
            }
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace bench
