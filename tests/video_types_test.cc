#include "video/types.h"

#include <gtest/gtest.h>

namespace smokescreen {
namespace video {
namespace {

TEST(ObjectClassTest, Names) {
  EXPECT_STREQ(ObjectClassName(ObjectClass::kCar), "car");
  EXPECT_STREQ(ObjectClassName(ObjectClass::kPerson), "person");
  EXPECT_STREQ(ObjectClassName(ObjectClass::kFace), "face");
}

TEST(ObjectClassTest, FromName) {
  auto car = ObjectClassFromName("car");
  ASSERT_TRUE(car.ok());
  EXPECT_EQ(*car, ObjectClass::kCar);
  auto person = ObjectClassFromName("person");
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(*person, ObjectClass::kPerson);
  EXPECT_FALSE(ObjectClassFromName("bicycle").ok());
  EXPECT_FALSE(ObjectClassFromName("").ok());
}

TEST(ClassSetTest, EmptyByDefault) {
  ClassSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0);
  EXPECT_FALSE(set.Contains(ObjectClass::kCar));
  EXPECT_EQ(set.ToString(), "none");
}

TEST(ClassSetTest, AddRemoveContains) {
  ClassSet set;
  set.Add(ObjectClass::kPerson);
  EXPECT_TRUE(set.Contains(ObjectClass::kPerson));
  EXPECT_FALSE(set.Contains(ObjectClass::kFace));
  EXPECT_EQ(set.size(), 1);
  set.Add(ObjectClass::kFace);
  EXPECT_EQ(set.size(), 2);
  set.Remove(ObjectClass::kPerson);
  EXPECT_FALSE(set.Contains(ObjectClass::kPerson));
  EXPECT_TRUE(set.Contains(ObjectClass::kFace));
}

TEST(ClassSetTest, InitializerListConstruction) {
  ClassSet set({ObjectClass::kPerson, ObjectClass::kFace});
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.ToString(), "person+face");
}

TEST(ClassSetTest, AddIsIdempotent) {
  ClassSet set;
  set.Add(ObjectClass::kCar);
  set.Add(ObjectClass::kCar);
  EXPECT_EQ(set.size(), 1);
}

TEST(ClassSetTest, Intersects) {
  ClassSet a({ObjectClass::kPerson});
  ClassSet b({ObjectClass::kPerson, ObjectClass::kFace});
  ClassSet c({ObjectClass::kCar});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(ClassSet::None()));
}

TEST(ClassSetTest, Equality) {
  EXPECT_EQ(ClassSet({ObjectClass::kFace}), ClassSet({ObjectClass::kFace}));
  EXPECT_FALSE(ClassSet({ObjectClass::kFace}) == ClassSet({ObjectClass::kPerson}));
}

TEST(FrameTest, CountGt) {
  Frame frame;
  frame.objects.push_back({ObjectClass::kCar, 1, 50, 0.9});
  frame.objects.push_back({ObjectClass::kCar, 2, 60, 0.9});
  frame.objects.push_back({ObjectClass::kPerson, 3, 40, 0.9});
  EXPECT_EQ(frame.CountGt(ObjectClass::kCar), 2);
  EXPECT_EQ(frame.CountGt(ObjectClass::kPerson), 1);
  EXPECT_EQ(frame.CountGt(ObjectClass::kFace), 0);
  EXPECT_TRUE(frame.ContainsGt(ObjectClass::kCar));
  EXPECT_FALSE(frame.ContainsGt(ObjectClass::kFace));
}

TEST(FrameTest, EmptyFrame) {
  Frame frame;
  EXPECT_EQ(frame.CountGt(ObjectClass::kCar), 0);
  EXPECT_FALSE(frame.ContainsGt(ObjectClass::kCar));
}

}  // namespace
}  // namespace video
}  // namespace smokescreen
